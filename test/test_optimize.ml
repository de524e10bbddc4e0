(* Greedy multi-Vt optimizer: monotone descent, determinism, budget
   accounting, typed diagnostics, and the optimize golden comparator. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil
module Json = Rgleak_obs.Json
module Golden_diff = Rgleak_valid.Golden_diff
module Obs = Rgleak_obs.Obs

let param = Process_param.default_channel_length

let chars =
  lazy
    (let rng = Rng.create ~seed:88 () in
     Array.map
       (fun cell ->
         Characterize.characterize ~l_points:49 ~mc_samples:1000 ~param
           ~rng:(Rng.split rng) cell)
       Library.cells)

let corr = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param

let hist_small =
  lazy
    (Histogram.of_weights
       [ ("NAND2_X1", 3.0); ("INV_X1", 2.0); ("NOR2_X1", 1.0); ("DFF_X1", 1.0) ])

let rgcorr =
  lazy
    (let rg =
       Random_gate.create ~chars:(Lazy.force chars)
         ~histogram:(Lazy.force hist_small) ~p:0.5 ()
     in
     Rg_correlation.create ~chars:(Lazy.force chars) ~rg ~p:0.5 ())

let bits = Int64.bits_of_float

let check_result_bits name (a : Delta.result) (b : Delta.result) =
  let tier tn (x : Delta.tier) (y : Delta.tier) =
    if
      bits x.Delta.mean <> bits y.Delta.mean
      || bits x.Delta.variance <> bits y.Delta.variance
    then
      Alcotest.failf "%s [%s]: results differ bitwise (%.17g vs %.17g)" name tn
        x.Delta.mean y.Delta.mean
  in
  tier "exact" a.Delta.exact b.Delta.exact;
  tier "linear" a.Delta.linear b.Delta.linear;
  tier "integral" a.Delta.integral b.Delta.integral

(* All cells start LVT: the richest candidate set (both LVT→SVT and
   LVT→HVT chains live). *)
let make_state ?jobs ?(flavor = Vt_correction.Lvt) ~n ~seed () =
  let rng = Rng.create ~seed () in
  let placed =
    Generator.random_placed ~histogram:(Lazy.force hist_small) ~n ~rng ()
  in
  Delta.create ?jobs ~distance_points:128 ~flavors:(Array.make n flavor)
    ~corr ~rgcorr:(Lazy.force rgcorr) placed

let test_monotone_descent () =
  let st0 = make_state ~n:40 ~seed:17 () in
  let r = Optimize.run ~budget:3.0 st0 in
  check_true "some moves applied" (List.length r.Optimize.moves > 0);
  check_true "budget respected" (r.Optimize.spent <= r.Optimize.budget);
  let cost_sum =
    List.fold_left (fun s m -> s +. m.Optimize.mv_cost) 0.0 r.Optimize.moves
  in
  check_close ~tol:1e-12 "spent equals sum of move costs" cost_sum
    r.Optimize.spent;
  List.iter
    (fun m ->
      check_true "gain positive" (m.Optimize.mv_gain > 0.0);
      check_true "cost positive" (m.Optimize.mv_cost > 0.0))
    r.Optimize.moves;
  (* Replay the move log from the initial state: the exact-tier mean
     must strictly decrease at every step, and the replay must land on
     the reported final result bit for bit. *)
  let st = ref st0 in
  let mean = ref r.Optimize.initial.Delta.exact.Delta.mean in
  let last = ref r.Optimize.initial in
  List.iter
    (fun m ->
      check_true "move starts from the cell's current flavor"
        (Delta.flavor_of !st m.Optimize.mv_cell = m.Optimize.mv_from);
      let st', r' =
        Delta.apply_swap !st ~cell:m.Optimize.mv_cell ~flavor:m.Optimize.mv_to
      in
      st := st';
      last := r';
      let mean' = r'.Delta.exact.Delta.mean in
      check_true "exact mean strictly decreases" (mean' < !mean);
      mean := mean')
    r.Optimize.moves;
  check_result_bits "replayed final == reported final" !last r.Optimize.final

let test_determinism () =
  let run jobs =
    let st = make_state ?jobs ~n:35 ~seed:23 () in
    Optimize.run ~budget:2.5 st
  in
  let a = run None and b = run None in
  check_true "rerun produces the identical move list"
    (a.Optimize.moves = b.Optimize.moves);
  check_result_bits "rerun final bitwise" a.Optimize.final b.Optimize.final;
  let p1 = run (Some 1) and p4 = run (Some 4) in
  check_true "jobs 1 vs 4: identical move list"
    (p1.Optimize.moves = p4.Optimize.moves);
  check_result_bits "jobs 1 vs 4 final bitwise" p1.Optimize.final
    p4.Optimize.final

let test_budget_exhaustion () =
  let st = make_state ~n:25 ~seed:31 () in
  (* Cheapest possible move costs delay_factor(Svt) - delay_factor(Lvt)
     = 0.15, so a 0.05 budget affords nothing: normal termination. *)
  let r = Optimize.run ~budget:0.05 st in
  check_true "no moves under a starvation budget" (r.Optimize.moves = []);
  check_true "nothing spent" (r.Optimize.spent = 0.0);
  check_result_bits "final == initial" r.Optimize.initial r.Optimize.final

let test_empty_candidates_guard () =
  (* Every cell already at the slowest flavor: no downgrade exists. *)
  let st = make_state ~flavor:Vt_correction.Hvt ~n:10 ~seed:41 () in
  match Optimize.run ~budget:1.0 st with
  | _ -> Alcotest.fail "all-HVT state must have no candidates"
  | exception Guard.Error (Guard.Invalid_input _) -> ()

let test_invalid_budget_guard () =
  let st = make_state ~n:12 ~seed:2 () in
  let expect_invalid b =
    match Optimize.run ~budget:b st with
    | _ -> Alcotest.failf "budget %g must be rejected" b
    | exception Guard.Error (Guard.Invalid_input _) -> ()
  in
  expect_invalid 0.0;
  expect_invalid (-1.0);
  expect_invalid Float.nan;
  expect_invalid Float.infinity

let test_telemetry () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let st = make_state ~n:20 ~seed:5 () in
  let r = Optimize.run ~budget:2.0 st in
  let counters = (Obs.snapshot ()).Obs.counters in
  let applied = List.length r.Optimize.moves in
  check_true "opt.swaps matches applied moves"
    (List.assoc "opt.swaps" counters = applied);
  check_true "opt.delta_calls counted"
    (List.assoc "opt.delta_calls" counters >= applied);
  check_true "opt.candidates counted"
    (List.assoc "opt.candidates" counters > 0)

(* ---- the optimize golden comparator ---- *)

let optimize_doc ?(schema = "rgleak-optimize/1") ?(n = 40.0) ?(spent = 1.2)
    ?(corr = "spherical") () =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("corr", Json.Str corr);
      ("n", Json.Num n);
      ("budget", Json.Num 2.0);
      ("spent", Json.Num spent);
      ("swaps", Json.Num 17.0);
      ("exact_mean_initial", Json.Num 3.25e-6);
      ("exact_mean_final", Json.Num 1.75e-6);
      ("deterministic", Json.Bool true);
    ]

let test_golden_optimize_identical () =
  let doc = optimize_doc () in
  let d = Golden_diff.compare ~baseline:doc ~current:doc in
  check_true "self-compare is identical"
    (d.Golden_diff.severity = Golden_diff.Identical)

let test_golden_optimize_benign_epsilon () =
  let base = optimize_doc ~spent:1.2 () in
  let cur = optimize_doc ~spent:(1.2 *. (1.0 +. 1e-13)) () in
  let d = Golden_diff.compare ~baseline:base ~current:cur in
  check_true "sub-epsilon numeric drift is benign"
    (d.Golden_diff.severity = Golden_diff.Benign)

let test_golden_optimize_breaking () =
  let base = optimize_doc () in
  (* Numeric drift beyond the fallback epsilon. *)
  let d =
    Golden_diff.compare ~baseline:base
      ~current:(optimize_doc ~spent:1.35 ())
  in
  check_true "numeric drift is breaking"
    (d.Golden_diff.severity = Golden_diff.Breaking);
  (* String change. *)
  let d =
    Golden_diff.compare ~baseline:base
      ~current:(optimize_doc ~corr:"grid" ())
  in
  check_true "scenario string change is breaking"
    (d.Golden_diff.severity = Golden_diff.Breaking);
  (* Field presence change. *)
  let dropped =
    match base with
    | Json.Obj kvs ->
      Json.Obj (List.filter (fun (k, _) -> k <> "swaps") kvs)
    | j -> j
  in
  let d = Golden_diff.compare ~baseline:base ~current:dropped in
  check_true "dropped field is breaking"
    (d.Golden_diff.severity = Golden_diff.Breaking)

let suite =
  ( "optimize",
    [
      Alcotest.test_case "monotone descent + exact replay" `Quick
        test_monotone_descent;
      Alcotest.test_case "determinism across reruns and job counts" `Quick
        test_determinism;
      Alcotest.test_case "budget exhaustion is normal termination" `Quick
        test_budget_exhaustion;
      Alcotest.test_case "empty candidate set raises Invalid_input" `Quick
        test_empty_candidates_guard;
      Alcotest.test_case "invalid budgets raise Invalid_input" `Quick
        test_invalid_budget_guard;
      Alcotest.test_case "telemetry counters" `Quick test_telemetry;
      Alcotest.test_case "golden: self-compare identical" `Quick
        test_golden_optimize_identical;
      Alcotest.test_case "golden: sub-epsilon drift benign" `Quick
        test_golden_optimize_benign_epsilon;
      Alcotest.test_case "golden: structural/numeric drift breaking" `Quick
        test_golden_optimize_breaking;
    ] )
