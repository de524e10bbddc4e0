(* The paper-table sweep: for each point of a declared sweep, run the
   three estimator tiers and a seeded Monte Carlo reference on the same
   placed design, compute the per-tier relative errors against the
   exact tier (the shape of the paper's Tables 1-2), and gate every
   tier against the MC confidence interval through Stat_test.

   Determinism contract: everything stochastic flows through
   Rng.stream keyed by (seed, point index), and the MC reference uses
   the replica-stream sampler, so the whole report is a pure function
   of (sweep, seed) — bit-identical across runs and across --jobs
   values.  No wall-clock data is ever written into a report. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
module Json = Rgleak_obs.Json

type point = {
  label : string;
  n : int;
  aspect : float;  (** die width / height *)
  family : Corr_model.wid_family;
  p : float;  (** signal probability: the standby input-vector mix *)
  mix_name : string;
  mix : (string * float) list;
  replicas : int;
}

type budget = { mean : float; std : float }
(** Relative model-error budgets (fractions of the MC center). *)

type budgets = { exact : budget; linear : budget; integral : budget }

type sweep = {
  sweep_name : string;
  confidence : float;
  budgets : budgets;
  points : point list;
}

(* ---------- sweep definitions ---------- *)

let asic_mix =
  [
    ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("NOR2_X1", 8.0); ("AND2_X1", 8.0);
    ("OR2_X1", 5.0); ("XOR2_X1", 4.0); ("BUF_X1", 5.0); ("DFF_X1", 9.0);
  ]

(* A register/complex-gate-heavy mix: the state spread that matters for
   standby (sleep-vector) leakage concentrates in stacked gates. *)
let standby_mix =
  [
    ("NAND3_X1", 10.0); ("NAND4_X1", 6.0); ("NOR3_X1", 8.0); ("AOI21_X1", 8.0);
    ("OAI21_X1", 8.0); ("DFF_X1", 25.0); ("DFFR_X1", 10.0); ("INV_X1", 10.0);
  ]

let family_spec = function
  | Corr_model.Linear { dmax } -> Printf.sprintf "linear:%g" dmax
  | Corr_model.Spherical { dmax } -> Printf.sprintf "spherical:%g" dmax
  | Corr_model.Exponential { range } -> Printf.sprintf "exp:%g" range
  | Corr_model.Gaussian { range } -> Printf.sprintf "gauss:%g" range
  | Corr_model.Truncated_exponential { range; dmax } ->
    Printf.sprintf "texp:%g:%g" range dmax

let point ?(aspect = 1.0) ?(p = 0.5) ?(mix_name = "asic") ?(mix = asic_mix)
    ?(replicas = 400) ~n family =
  {
    label =
      Printf.sprintf "n%d-a%g-%s-p%g-%s" n aspect (family_spec family) p
        mix_name;
    n;
    aspect;
    family;
    p;
    mix_name;
    mix;
    replicas;
  }

(* Budgets declare the systematic model error each tier is allowed on
   top of MC sampling noise.  The exact tier carries only the cell-model
   fit error (paper 2.1.2: mean avg 0.44%, sigma avg ~3%); the RG tiers
   add the finite-size random-gate error (Fig. 6: ~2% at 10^4 gates,
   growing as 1/sqrt(n) for smaller designs) — at the validation sizes
   here (n <= 1600) that dominates, so their sigma budget is wider. *)
let default_budgets =
  {
    exact = { mean = 0.02; std = 0.06 };
    linear = { mean = 0.03; std = 0.12 };
    integral = { mean = 0.03; std = 0.12 };
  }

let quick_sweep =
  {
    sweep_name = "quick";
    confidence = 0.99;
    budgets = default_budgets;
    points =
      [
        point ~n:144 ~replicas:200 (Corr_model.Spherical { dmax = 100.0 });
        (* The heavy-tailed point: 160 replicas demonstrably undersample
           the tail (the sample σ and kurtosis deflate together and the
           kurtosis-adjusted CI cannot see it), 400 are enough. *)
        point ~n:256 ~replicas:400 ~p:0.2 ~mix_name:"standby" ~mix:standby_mix
          (Corr_model.Exponential { range = 40.0 });
      ];
  }

let default_sweep =
  {
    sweep_name = "default";
    confidence = 0.99;
    budgets = default_budgets;
    points =
      [
        (* design-size sweep at the paper's spherical dmax = 120 um *)
        point ~n:400 (Corr_model.Spherical { dmax = 120.0 });
        point ~n:900 (Corr_model.Spherical { dmax = 120.0 });
        point ~n:1600 ~replicas:300 (Corr_model.Spherical { dmax = 120.0 });
        (* correlation-range sweep *)
        point ~n:900 (Corr_model.Spherical { dmax = 60.0 });
        point ~n:900 (Corr_model.Exponential { range = 30.0 });
        point ~n:900 (Corr_model.Gaussian { range = 80.0 });
        (* aspect-ratio sweep *)
        point ~n:900 ~aspect:2.5 (Corr_model.Spherical { dmax = 120.0 });
        (* sleep-vector mixes: input-vector probability extremes *)
        point ~n:900 ~p:0.2 ~mix_name:"standby" ~mix:standby_mix
          (Corr_model.Spherical { dmax = 120.0 });
        point ~n:900 ~p:0.8 ~mix_name:"standby" ~mix:standby_mix
          (Corr_model.Spherical { dmax = 120.0 });
      ];
  }

let sweep_named = function
  | "quick" -> quick_sweep
  | "default" -> default_sweep
  | s ->
    Guard.invalid
      (Printf.sprintf "unknown sweep %S (expected quick or default)" s)

(* ---------- report types ---------- *)

type tier_report = {
  tier : string;
  status : string;  (** ["ok"] or ["error:<class>"] *)
  mean : float option;
  std : float option;
  mean_rel_err : float option;  (** vs the exact tier *)
  std_rel_err : float option;
  mean_verdict : Stat_test.verdict option;  (** vs the MC interval *)
  std_verdict : Stat_test.verdict option;
  tier_pass : bool;
}

type mc_report = {
  mc_status : string;
  mc_mean : float option;
  mc_std : float option;
  mc_mean_ci : Stat_test.interval option;
  mc_std_ci : Stat_test.interval option;
}

type point_report = {
  point : point;
  width : float;
  height : float;
  mc : mc_report;
  tiers : tier_report list;
  point_pass : bool;
}

type report = {
  schema : string;
  seed : int;
  report_sweep : string;
  confidence : float;
  point_reports : point_report list;
  pass : bool;
}

let schema_id = "rgleak-validate/1"

(* ---------- execution ---------- *)

(* Independent derived seeds per (master seed, point, role): the role
   offsets are far enough apart that the placement stream and the MC
   replica streams of a point never coincide. *)
let derived_seed ~seed ~index ~role = seed + (7919 * (index + 1)) + (104729 * role)

let status_of_diag d = "error:" ^ Guard.class_name d

let tier_of_result ~tier ~(budget : budget) ~exact_stats ~mc
    (r : (float * float, Guard.diagnostic) result) =
  match r with
  | Error d ->
    {
      tier;
      status = status_of_diag d;
      mean = None;
      std = None;
      mean_rel_err = None;
      std_rel_err = None;
      mean_verdict = None;
      std_verdict = None;
      tier_pass = false;
    }
  | Ok (mean, std) ->
    let mean_rel_err =
      match exact_stats with
      | Some (rm, _) when rm <> 0.0 ->
        Some (Stats.relative_error ~actual:mean ~reference:rm)
      | _ -> None
    in
    let std_rel_err =
      match exact_stats with
      | Some (_, rs) when rs <> 0.0 ->
        Some (Stats.relative_error ~actual:std ~reference:rs)
      | _ -> None
    in
    let mean_verdict =
      Option.map
        (fun ci -> Stat_test.equivalent ~value:mean ~reference:ci ~budget_rel:budget.mean)
        mc.mc_mean_ci
    in
    let std_verdict =
      Option.map
        (fun ci -> Stat_test.equivalent ~value:std ~reference:ci ~budget_rel:budget.std)
        mc.mc_std_ci
    in
    let pass_of = function Some v -> v.Stat_test.pass | None -> false in
    {
      tier;
      status = "ok";
      mean = Some mean;
      std = Some std;
      mean_rel_err;
      std_rel_err;
      mean_verdict;
      std_verdict;
      tier_pass = pass_of mean_verdict && pass_of std_verdict;
    }

let run_point ?jobs ~chars ~confidence ~budgets ~seed ~index pt =
  let param = Process_param.default_channel_length in
  let corr = Corr_model.create pt.family param in
  let histogram = Histogram.of_weights pt.mix in
  let ctx = Estimate.context ~p:pt.p ~chars ~corr ~histogram () in
  let rgcorr = Estimate.correlation ctx in
  (* Aspect-ratio die of n 4x4 um sites; the layout's own bounding box
     is what the integral tiers integrate over. *)
  let site = 4.0 in
  let area = float_of_int pt.n *. site *. site in
  let width0 = sqrt (area *. pt.aspect) and height0 = sqrt (area /. pt.aspect) in
  let layout = Layout.of_dims ~n:pt.n ~width:width0 ~height:height0 in
  let width = Layout.width layout and height = Layout.height layout in
  let rng = Rng.stream ~seed:(derived_seed ~seed ~index ~role:0) 0 in
  let netlist = Generator.random_netlist ~histogram ~n:pt.n ~rng () in
  let placed = Placer.place ~strategy:Placer.Random ~rng netlist layout in
  (* Monte Carlo reference: replica streams keyed by the derived seed
     and reduced sequentially in replica order, so the intervals are
     jobs-invariant.  The σ interval uses the sample kurtosis — the
     right-skewed leakage sums make the MC σ wobble several times more
     than normal theory predicts, and the normal-theory SE would flag
     perfectly healthy tiers on unlucky replica draws. *)
  let mc =
    match
      Guard.protect (fun () ->
          let sampler = Mc_reference.prepare ~chars ~corr ~p:pt.p placed in
          Mc_reference.sample_many_stream ?jobs sampler
            ~seed:(derived_seed ~seed ~index ~role:1)
            ~count:pt.replicas)
    with
    | Error d ->
      {
        mc_status = status_of_diag d;
        mc_mean = None;
        mc_std = None;
        mc_mean_ci = None;
        mc_std_ci = None;
      }
    | Ok samples ->
      let count = Array.length samples in
      let nf = float_of_int count in
      let mean = Array.fold_left ( +. ) 0.0 samples /. nf in
      let m2 =
        Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 samples
      in
      let std = sqrt (m2 /. (nf -. 1.0)) in
      let kurtosis = Stats.kurtosis samples in
      {
        mc_status = "ok";
        mc_mean = Some mean;
        mc_std = Some std;
        mc_mean_ci = Some (Stat_test.mean_interval ~mean ~std ~count ~confidence);
        mc_std_ci =
          Some (Stat_test.std_interval ~kurtosis ~std ~count ~confidence ());
      }
  in
  let exact_r =
    Result.map
      (fun (r : Estimator_exact.result) ->
        (r.Estimator_exact.mean, r.Estimator_exact.std))
      (Estimator_exact.estimate_result ?jobs ~corr ~rgcorr placed)
  in
  let linear_r =
    Result.map
      (fun (r : Estimator_linear.result) ->
        (r.Estimator_linear.mean, r.Estimator_linear.std))
      (Estimator_linear.estimate_result ~corr ~rgcorr ~layout ())
  in
  let integral_r =
    Result.map
      (fun (r : Estimator_integral.result) ->
        (r.Estimator_integral.mean, r.Estimator_integral.std))
      (if Estimator_integral.polar_applicable ~corr ~width ~height then
         Estimator_integral.polar_result ~corr ~rgcorr ~n:pt.n ~width ~height ()
       else
         Estimator_integral.rect_2d_result ~corr ~rgcorr ~n:pt.n ~width ~height
           ())
  in
  let exact_stats = Result.to_option exact_r in
  let tiers =
    [
      tier_of_result ~tier:"exact" ~budget:budgets.exact ~exact_stats ~mc
        exact_r;
      tier_of_result ~tier:"linear" ~budget:budgets.linear ~exact_stats ~mc
        linear_r;
      tier_of_result ~tier:"integral" ~budget:budgets.integral ~exact_stats ~mc
        integral_r;
    ]
  in
  let point_pass =
    mc.mc_status = "ok" && List.for_all (fun t -> t.tier_pass) tiers
  in
  { point = pt; width; height; mc; tiers; point_pass }

let run ?jobs ?(chars = Characterize.default_library ()) ~seed (sweep : sweep) =
  (* A zero-point sweep would vacuously "pass" (List.for_all on []) —
     surface it as a typed input error instead of a hollow green. *)
  if sweep.points = [] then
    Guard.invalid
      (Printf.sprintf "sweep %S has no points: nothing to validate"
         sweep.sweep_name);
  let point_reports =
    List.mapi
      (fun index pt ->
        run_point ?jobs ~chars ~confidence:sweep.confidence
          ~budgets:sweep.budgets ~seed ~index pt)
      sweep.points
  in
  {
    schema = schema_id;
    seed;
    report_sweep = sweep.sweep_name;
    confidence = sweep.confidence;
    point_reports;
    pass = List.for_all (fun p -> p.point_pass) point_reports;
  }

(* ---------- JSON serialization (rgleak-validate/1) ---------- *)

let opt_num = function Some v -> Json.Num v | None -> Json.Null

let verdict_json = function
  | None -> Json.Null
  | Some (v : Stat_test.verdict) ->
    Json.Obj
      [
        ("value", Json.Num v.Stat_test.value);
        ("center", Json.Num v.Stat_test.center);
        ("z", Json.Num v.Stat_test.z);
        ("ci_half_width", Json.Num v.Stat_test.ci_half_width);
        ("budget", Json.Num v.Stat_test.budget);
        ("pass", Json.Bool v.Stat_test.pass);
      ]

let tier_json t =
  Json.Obj
    [
      ("tier", Json.Str t.tier);
      ("status", Json.Str t.status);
      ("mean", opt_num t.mean);
      ("std", opt_num t.std);
      ("mean_rel_err", opt_num t.mean_rel_err);
      ("std_rel_err", opt_num t.std_rel_err);
      ("mean_equiv", verdict_json t.mean_verdict);
      ("std_equiv", verdict_json t.std_verdict);
      ("pass", Json.Bool t.tier_pass);
    ]

let point_json p =
  Json.Obj
    [
      ("label", Json.Str p.point.label);
      ("n", Json.Num (float_of_int p.point.n));
      ("aspect", Json.Num p.point.aspect);
      ("corr", Json.Str (family_spec p.point.family));
      ("p", Json.Num p.point.p);
      ("mix", Json.Str p.point.mix_name);
      ("replicas", Json.Num (float_of_int p.point.replicas));
      ("width", Json.Num p.width);
      ("height", Json.Num p.height);
      ( "mc",
        Json.Obj
          [
            ("status", Json.Str p.mc.mc_status);
            ("mean", opt_num p.mc.mc_mean);
            ("std", opt_num p.mc.mc_std);
            ( "mean_se",
              opt_num
                (Option.map (fun i -> i.Stat_test.se) p.mc.mc_mean_ci) );
            ( "std_se",
              opt_num (Option.map (fun i -> i.Stat_test.se) p.mc.mc_std_ci) );
          ] );
      ("tiers", Json.Arr (List.map tier_json p.tiers));
      ("pass", Json.Bool p.point_pass);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str r.schema);
      ("seed", Json.Num (float_of_int r.seed));
      ("sweep", Json.Str r.report_sweep);
      ("confidence", Json.Num r.confidence);
      ("pass", Json.Bool r.pass);
      ("points", Json.Arr (List.map point_json r.point_reports));
    ]

let write_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string ~indent:2 (to_json r)))

(* ---------- human-readable table (the paper's Tables 1-2 shape) ---------- *)

let pp_report fmt r =
  Format.fprintf fmt
    "validation sweep %S, seed %d, %.0f%% MC confidence@." r.report_sweep
    r.seed (100.0 *. r.confidence);
  List.iter
    (fun p ->
      Format.fprintf fmt "@.%s (die %.0f x %.0f um)@." p.point.label p.width
        p.height;
      (match (p.mc.mc_mean, p.mc.mc_std) with
      | Some m, Some s ->
        Format.fprintf fmt
          "  MC reference   : mean %10.2f  std %10.2f  (%d replicas)@." m s
          p.point.replicas
      | _ -> Format.fprintf fmt "  MC reference   : %s@." p.mc.mc_status);
      Format.fprintf fmt "  %-9s %10s %10s %9s %9s %7s %7s  %s@." "tier"
        "mean" "std" "d mean%" "d std%" "z(mu)" "z(sig)" "verdict";
      List.iter
        (fun t ->
          match (t.mean, t.std) with
          | Some m, Some s ->
            let pct = function
              | Some e -> Printf.sprintf "%9.3f" (100.0 *. e)
              | None -> Printf.sprintf "%9s" "-"
            in
            let z = function
              | Some (v : Stat_test.verdict) ->
                Printf.sprintf "%7.2f" v.Stat_test.z
              | None -> Printf.sprintf "%7s" "-"
            in
            Format.fprintf fmt "  %-9s %10.2f %10.2f %s %s %s %s  %s@." t.tier
              m s (pct t.mean_rel_err) (pct t.std_rel_err) (z t.mean_verdict)
              (z t.std_verdict)
              (if t.tier_pass then "ok" else "FAIL")
          | _ -> Format.fprintf fmt "  %-9s %s@." t.tier t.status)
        p.tiers)
    r.point_reports;
  Format.fprintf fmt "@.validation %s@."
    (if r.pass then "passed" else "FAILED")
