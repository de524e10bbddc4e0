(* Tail-statistics extension of the validation harness.

   Three layers:
   - a small-n scenario builder sharing the experiment harness's
     determinism conventions (Rng.stream keyed by derived seeds, so
     every number is a pure function of the scenario and seed);
   - the IS-vs-brute-force equivalence gate: the importance-sampled
     exceedance probability must land inside the Wilson 95% CI of a
     brute-force MC run using >= 10x more replicas;
   - the analytic cross-check: the lognormal-sum baselines (the exact
     pairwise tier and Chang–Sapatnekar from lib/baseline) give
     closed-form exceedance probabilities the IS estimate must agree
     with to within tail-model error.

   The rgleak-tail/1 JSON document (the `rgleak tail` output and the
   committed golden baseline data/golden/tail_quick.json) is also
   assembled here so the CLI and the tests share one serializer. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Rgleak_baseline
module Json = Rgleak_obs.Json

type scenario = {
  sc_n : int;
  sc_family : Corr_model.wid_family;
  sc_p : float;
  sc_mix_name : string;
  sc_mix : (string * float) list;
}

let default_mix =
  [
    ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("NOR2_X1", 8.0); ("AND2_X1", 8.0);
    ("OR2_X1", 5.0); ("XOR2_X1", 4.0); ("BUF_X1", 5.0); ("DFF_X1", 9.0);
  ]

let default_scenario =
  {
    sc_n = 192;
    sc_family = Corr_model.Spherical { dmax = 120.0 };
    sc_p = 0.5;
    sc_mix_name = "asic";
    sc_mix = default_mix;
  }

type setup = {
  scenario : scenario;
  seed : int;
  mc : Mc_reference.t;
  placed : Placer.placed;
  chars : Characterize.cell_char array;
  corr : Corr_model.t;
}

(* Same role-split convention as Experiment.derived_seed: placement and
   replica streams never share an RNG stream. *)
let derived_seed ~seed ~role = seed + (7919 * role) + 104729

let prepare ?(chars = Characterize.default_library ()) ~seed scenario =
  let param = Process_param.default_channel_length in
  let corr = Corr_model.create scenario.sc_family param in
  let histogram = Histogram.of_weights scenario.sc_mix in
  let site = 4.0 in
  let area = float_of_int scenario.sc_n *. site *. site in
  let side = sqrt area in
  let layout = Layout.of_dims ~n:scenario.sc_n ~width:side ~height:side in
  let rng = Rng.stream ~seed:(derived_seed ~seed ~role:0) 0 in
  let netlist = Generator.random_netlist ~histogram ~n:scenario.sc_n ~rng () in
  let placed = Placer.place ~strategy:Placer.Random ~rng netlist layout in
  let mc = Mc_reference.prepare ~chars ~corr ~p:scenario.sc_p placed in
  { scenario; seed; mc; placed; chars; corr }

(* A deterministic budget in the tail of the leakage distribution: the
   [level] quantile of the exact-tier lognormal fit.  No sampling is
   involved, so the budget — and everything downstream — is a pure
   function of (scenario, level). *)
let budget_at setup ~level =
  let r =
    Chang_sapatnekar.analyze ~p:setup.scenario.sc_p ~chars:setup.chars
      ~corr:setup.corr setup.placed
  in
  Distribution.quantile r.Chang_sapatnekar.distribution level

(* The one IS entry point everything downstream shares (CLI, golden,
   equivalence and analytic gates): calibrate-or-override the shift,
   then estimate with the role-2 replica stream. *)
let run ?jobs ?(confidence = 0.95) ?shift_delta ~budget ~replicas setup =
  let delta =
    match shift_delta with
    | Some d -> d
    | None -> Mc_reference.calibrate_shift setup.mc ~budget
  in
  let shift = Mc_reference.uniform_shift setup.mc ~delta in
  Tail.estimate ?jobs ~confidence ~mc:setup.mc ~budget ~shift
    ~seed:(derived_seed ~seed:setup.seed ~role:2)
    ~replicas ()

let analytic_exceedance setup ~budget =
  let cs =
    Chang_sapatnekar.analyze ~p:setup.scenario.sc_p ~chars:setup.chars
      ~corr:setup.corr setup.placed
  in
  Distribution.exceedance cs.Chang_sapatnekar.distribution ~budget

(* ---------- IS vs brute-force equivalence ---------- *)

type equivalence = {
  eq_budget : float;
  eq_bf_replicas : int;
  eq_is_replicas : int;
  eq_bf_hits : int;
  eq_bf_p : float;
  eq_bf_lo : float;  (** Wilson 95% bounds of the brute-force estimate *)
  eq_bf_hi : float;
  eq_is_p : float;
  eq_is_se : float;
  eq_delta : float;
  eq_ess : float;
  eq_pass : bool;
}

let equivalence ?jobs ?(confidence = 0.95) ~budget ~bf_replicas ~is_replicas
    setup =
  if bf_replicas < 10 * is_replicas then
    invalid_arg
      "Tail_test.equivalence: the brute-force run must use >= 10x the IS \
       replicas — that asymmetry is the point of the gate";
  let bf =
    Mc_reference.sample_many_stream ?jobs setup.mc
      ~seed:(derived_seed ~seed:setup.seed ~role:1)
      ~count:bf_replicas
  in
  let hits = Array.fold_left (fun a x -> if x > budget then a + 1 else a) 0 bf in
  let bf_p = float_of_int hits /. float_of_int bf_replicas in
  let z = Stats.z_of_confidence confidence in
  let bf_lo, bf_hi = Stats.wilson_interval ~hits ~count:bf_replicas ~z in
  let r = run ?jobs ~confidence ~budget ~replicas:is_replicas setup in
  {
    eq_budget = budget;
    eq_bf_replicas = bf_replicas;
    eq_is_replicas = is_replicas;
    eq_bf_hits = hits;
    eq_bf_p = bf_p;
    eq_bf_lo = bf_lo;
    eq_bf_hi = bf_hi;
    eq_is_p = r.Tail.p_exceed;
    eq_is_se = r.Tail.se;
    eq_delta = r.Tail.delta;
    eq_ess = r.Tail.ess;
    eq_pass = r.Tail.p_exceed >= bf_lo && r.Tail.p_exceed <= bf_hi;
  }

(* ---------- analytic lognormal-sum cross-check ---------- *)

type analytic = {
  an_budget : float;
  an_is_p : float;
  an_cs_p : float;  (** Chang–Sapatnekar lognormal exceedance *)
  an_log10_ratio : float;  (** log10 (IS / analytic) *)
  an_pass : bool;
}

(* The Wilkinson lognormal is a two-moment fit: at the moderate tails
   the calibrated budget targets (z of 2–3), its exceedance is right
   to within tens of percent, so half an order of magnitude is a
   conservative but meaningful gate — a broken weight or shift is off
   by orders of magnitude. *)
let analytic_tolerance_log10 = 0.5

let analytic ?jobs ?(confidence = 0.95) ~budget ~replicas setup =
  let cs_p = analytic_exceedance setup ~budget in
  let r = run ?jobs ~confidence ~budget ~replicas setup in
  let is_p = r.Tail.p_exceed in
  let ratio =
    if is_p > 0.0 && cs_p > 0.0 then Float.log10 (is_p /. cs_p) else infinity
  in
  {
    an_budget = budget;
    an_is_p = is_p;
    an_cs_p = cs_p;
    an_log10_ratio = ratio;
    an_pass = Float.abs ratio <= analytic_tolerance_log10;
  }

(* ---------- the rgleak-tail/1 document ---------- *)

let schema_id = "rgleak-tail/1"

type doc_meta = {
  doc_n : int;
  doc_corr : string;
  doc_mix : string;
  doc_p : float;
  doc_seed : int;  (** the user's master seed, not the derived stream *)
  doc_confidence : float;
  doc_analytic_p : float option;
      (** lognormal-sum exceedance at the same budget, when available *)
}

let to_json meta (r : Tail.result) =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("n", Json.Num (float_of_int meta.doc_n));
      ("corr", Json.Str meta.doc_corr);
      ("mix", Json.Str meta.doc_mix);
      ("p", Json.Num meta.doc_p);
      ("seed", Json.Num (float_of_int meta.doc_seed));
      ("replicas", Json.Num (float_of_int r.Tail.replicas));
      ("confidence", Json.Num meta.doc_confidence);
      ("budget_na", Json.Num r.Tail.budget);
      ("delta_nm", Json.Num r.Tail.delta);
      ("shift_norm2", Json.Num r.Tail.shift_norm2);
      ("p_exceed", Json.Num r.Tail.p_exceed);
      ("se", Json.Num r.Tail.se);
      ("ci_lo", Json.Num r.Tail.ci_delta.Tail.lo);
      ("ci_hi", Json.Num r.Tail.ci_delta.Tail.hi);
      ("wilson_lo", Json.Num r.Tail.ci_wilson.Tail.lo);
      ("wilson_hi", Json.Num r.Tail.ci_wilson.Tail.hi);
      ("hits", Json.Num (float_of_int r.Tail.hits));
      ("hit_rate", Json.Num r.Tail.hit_rate);
      ("ess", Json.Num r.Tail.ess);
      ("mean_weight", Json.Num r.Tail.mean_weight);
      ("max_weight", Json.Num r.Tail.max_weight);
      ( "analytic_p",
        match meta.doc_analytic_p with
        | Some p -> Json.Num p
        | None -> Json.Null );
      ( "quantiles",
        Json.Arr
          (List.map
             (fun (q : Tail.quantile) ->
               Json.Obj
                 [
                   ("level", Json.Num q.Tail.level);
                   ("leakage_na", Json.Num q.Tail.value);
                 ])
             r.Tail.quantiles) );
    ]
