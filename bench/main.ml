(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) plus ablations, and exposes
   Bechamel micro-benchmarks for the estimator complexity claims.

   Usage:
     bench/main.exe                   run E1..E9 and ablations
     bench/main.exe --run fig6        run a single experiment
     bench/main.exe --run timing      time the estimators at 1 and N jobs
                                      and write BENCH_estimators.json
     bench/main.exe --run overhead    assert disabled telemetry costs < 1%
                                      on the exact loop (BENCH_overhead.json)
     bench/main.exe --run microbench  run the Bechamel micro-benchmarks
     bench/main.exe --jobs 8          size the parallel domain pool
     bench/main.exe --fast            reduced replica counts  *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
module Obs = Rgleak_obs.Obs
module Vjson = Rgleak_valid.Vjson

let fast = ref false
let jobs_override = ref None
let section name = Printf.printf "\n=== %s ===\n%!" name

let param = Process_param.default_channel_length
let corr_default = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param

(* A typical ASIC cell mix used for the randomly-generated-circuit
   experiments (Figs. 3, 6, 7). *)
let default_mix =
  [
    ("INV_X1", 20.0); ("INV_X2", 5.0); ("NAND2_X1", 18.0); ("NAND3_X1", 6.0);
    ("NOR2_X1", 8.0); ("AND2_X1", 8.0); ("OR2_X1", 5.0); ("XOR2_X1", 4.0);
    ("AOI21_X1", 4.0); ("OAI21_X1", 4.0); ("BUF_X1", 5.0); ("MUX2_X1", 3.0);
    ("DFF_X1", 9.0); ("DFFR_X1", 2.0);
  ]

let default_hist = lazy (Histogram.of_weights default_mix)
let chars = lazy (Characterize.default_library ())

let pct a b = 100.0 *. (a -. b) /. b

(* ------------------------------------------------------------------ *)
(* E1: cell-model accuracy (paper section 2.1.2 text)                   *)
(* ------------------------------------------------------------------ *)

let run_e1 () =
  section "E1: analytical cell model vs Monte Carlo (paper 2.1.2)";
  let chars = Lazy.force chars in
  let m_errs = ref [] and s_errs = ref [] in
  Array.iter
    (fun (ch : Characterize.cell_char) ->
      Array.iter
        (fun (sc : Characterize.state_char) ->
          m_errs :=
            Float.abs (pct sc.Characterize.mu_analytic sc.Characterize.mu_mc)
            :: !m_errs;
          s_errs :=
            Float.abs (pct sc.Characterize.sigma_analytic sc.Characterize.sigma_mc)
            :: !s_errs)
        ch.Characterize.states)
    chars;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let mx = List.fold_left Float.max 0.0 in
  Printf.printf "cells x states characterized : %d\n"
    (List.length !m_errs);
  Printf.printf "mean leakage error  : avg %.2f%%  max %.2f%%   (paper: avg 0.44%%, max < 2%%)\n"
    (avg !m_errs) (mx !m_errs);
  Printf.printf "std  leakage error  : avg %.2f%%  max %.2f%%   (paper: avg 3.1%%,  max ~10%%)\n"
    (avg !s_errs) (mx !s_errs)

(* ------------------------------------------------------------------ *)
(* E2 / Fig. 2: leakage correlation vs length correlation               *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  section "E2 (Fig. 2): leakage correlation vs channel-length correlation";
  let chars = Lazy.force chars in
  let sc name state = chars.(Library.index_of name).Characterize.states.(state) in
  let pairs =
    [
      ("NAND2(00) vs NOR3(000)", sc "NAND2_X1" 0, sc "NOR3_X1" 0);
      ("INV(0) vs INV(0)", sc "INV_X1" 0, sc "INV_X1" 0);
      ("NAND4(0000) vs DFF(s0)", sc "NAND4_X1" 0, sc "DFF_X1" 0);
    ]
  in
  let rng = Rng.create ~seed:2025 () in
  List.iter
    (fun (label, a, b) ->
      Printf.printf "%s\n  rho_L   analytic   monte-carlo\n" label;
      Array.iter
        (fun rho ->
          let an = Pair_correlation.analytic a b ~param ~rho in
          let mc =
            Pair_correlation.monte_carlo a b ~param ~rho
              ~samples:(if !fast then 20_000 else 100_000)
              ~rng
          in
          Printf.printf "  %5.2f   %8.4f   %8.4f\n" rho an mc)
        (Vector.linspace 0.0 1.0 11);
      let curve =
        Pair_correlation.curve ~points:21
          ~f:(fun ~rho -> Pair_correlation.analytic a b ~param ~rho)
          ()
      in
      Printf.printf "  max |f - identity| = %.4f (paper: near y = x)\n"
        (Pair_correlation.max_identity_deviation curve))
    pairs

(* ------------------------------------------------------------------ *)
(* E3 / Fig. 3: signal probability sweep                                *)
(* ------------------------------------------------------------------ *)

let run_fig3 () =
  section "E3 (Fig. 3): mean leakage vs signal probability";
  let chars = Lazy.force chars in
  let mixes =
    [
      ("typical ASIC mix", Lazy.force default_hist);
      ("multiplier-like (c6288 mix)",
       Histogram.of_weights (Benchmarks.find "c6288").Benchmarks.mix);
      ("uniform over library", Histogram.uniform ());
    ]
  in
  List.iter
    (fun (label, hist) ->
      let weights = Histogram.to_array hist in
      let curve = Signal_prob.sweep ~points:21 chars ~weights in
      Printf.printf "%s (per-gate mean leakage, nA)\n  p      mean\n" label;
      Array.iter (fun (p, v) -> Printf.printf "  %4.2f   %.4f\n" p v) curve;
      let vmin = Array.fold_left (fun m (_, v) -> Float.min m v) infinity curve in
      let vmax = Array.fold_left (fun m (_, v) -> Float.max m v) 0.0 curve in
      Printf.printf
        "  spread max/min = %.3fx, argmax p = %.2f (paper: effect not pronounced)\n"
        (vmax /. vmin)
        (Signal_prob.maximizing_p chars ~weights))
    mixes

(* ------------------------------------------------------------------ *)
(* E4 / Fig. 6: convergence of random circuits to the RG estimate       *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  section "E4 (Fig. 6): random circuits vs RG estimate, error vs circuit size";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  Printf.printf "signal probability (max-leakage setting): p = %.2f\n"
    (Estimate.signal_p ctx);
  Printf.printf
    "%7s %5s  %23s  %23s\n" "gates" "reps" "mean err min/max (%)" "std err min/max (%)";
  let rng = Rng.create ~seed:4242 () in
  Array.iter
    (fun n ->
      let reps =
        let base = Stdlib.max 4 (Stdlib.min 30 (300_000 / n)) in
        if !fast then Stdlib.max 3 (base / 4) else base
      in
      let mean_lo = ref infinity and mean_hi = ref neg_infinity in
      let std_lo = ref infinity and std_hi = ref neg_infinity in
      for _ = 1 to reps do
        (* Multinomial type sampling: each circuit is an instance of the
           specified mix, with the natural count fluctuations across
           designs; the RG prediction uses the specified histogram. *)
        let placed =
          Generator.random_placed ~sampling:`Multinomial ~histogram:hist ~n
            ~rng ()
        in
        let tr =
          Estimator_exact.estimate ~corr:corr_default
            ~rgcorr:(Estimate.correlation ctx) placed
        in
        let spec =
          {
            Estimate.histogram = hist;
            n;
            width = Layout.width placed.Placer.layout;
            height = Layout.height placed.Placer.layout;
          }
        in
        let est = Estimate.run ~method_:Estimate.Linear ctx spec in
        let me = pct tr.Estimator_exact.mean est.Estimate.mean in
        let se = pct tr.Estimator_exact.std est.Estimate.std in
        if me < !mean_lo then mean_lo := me;
        if me > !mean_hi then mean_hi := me;
        if se < !std_lo then std_lo := se;
        if se > !std_hi then std_hi := se
      done;
      Printf.printf "%7d %5d  %10.3f / %-10.3f  %10.3f / %-10.3f\n" n reps
        !mean_lo !mean_hi !std_lo !std_hi)
    Generator.fig6_sizes;
  Printf.printf
    "(paper: max difference 2.2%% at 11,236 gates, shrinking with size)\n"

(* ------------------------------------------------------------------ *)
(* E5 / Table 1: ISCAS85 late-mode estimation                           *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "E5 (Table 1): % error in full-chip std dev, ISCAS85-like circuits";
  let chars = Lazy.force chars in
  let paper =
    [ ("c499", 1.04); ("c1355", 0.41); ("c432", 1.14); ("c1908", 0.36);
      ("c880", 0.74); ("c2670", 0.52); ("c5315", 0.23); ("c7552", 0.34);
      ("c6288", 1.38) ]
  in
  Printf.printf "%-7s %6s  %10s %10s  %9s %9s\n" "circuit" "gates"
    "true std" "RG std" "err(std)" "paper";
  List.iter
    (fun name ->
      let spec = Benchmarks.find name in
      let placed = Benchmarks.placed spec in
      let tr = Estimate.true_leakage ~chars ~corr:corr_default placed in
      let est =
        Estimate.late ~chars ~corr:corr_default ~method_:Estimate.Linear placed
      in
      Printf.printf "%-7s %6d  %10.2f %10.2f  %8.2f%% %8.2f%%\n" name
        spec.Benchmarks.gates tr.Estimate.std est.Estimate.std
        (Float.abs (pct est.Estimate.std tr.Estimate.std))
        (List.assoc name paper))
    Benchmarks.table1_names;
  Printf.printf "(mean errors are negligible, as in the paper: ";
  let placed = Benchmarks.placed (Benchmarks.find "c880") in
  let tr = Estimate.true_leakage ~chars ~corr:corr_default placed in
  let est = Estimate.late ~chars ~corr:corr_default ~method_:Estimate.Linear placed in
  Printf.printf "c880 mean err = %.4f%%)\n"
    (Float.abs (pct est.Estimate.mean tr.Estimate.mean))

(* ------------------------------------------------------------------ *)
(* E6: simplified correlation assumption (section 3.1.2)                *)
(* ------------------------------------------------------------------ *)

let run_e6 () =
  section "E6 (3.1.2): simplified rho_mn = rho_L assumption";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let layout = Layout.square ~n:3600 () in
  let check label corr =
    let std_of mapping =
      let ctx = Estimate.context ~mapping ~chars ~corr ~histogram:hist () in
      (Estimator_linear.estimate ~corr ~rgcorr:(Estimate.correlation ctx)
         ~layout ())
        .Estimator_linear.std
    in
    let exact = std_of Rg_correlation.Exact in
    let simpl = std_of Rg_correlation.Simplified in
    Printf.printf "%-28s std exact=%.2f simplified=%.2f  err=%.2f%%\n" label
      exact simpl
      (Float.abs (pct simpl exact))
  in
  check "WID + D2D" corr_default;
  let wid_only_param =
    Process_param.make ~name:"L-wid-only" ~nominal:90.0 ~sigma_d2d:0.0
      ~sigma_wid:(Process_param.sigma_total param)
  in
  check "WID only"
    (Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) wid_only_param);
  Printf.printf "(paper: error below 2.8%% in both cases)\n"

(* ------------------------------------------------------------------ *)
(* E7 / Fig. 7: integral vs linear-time agreement                       *)
(* ------------------------------------------------------------------ *)

let run_fig7 () =
  section "E7 (Fig. 7): % error, O(1) numerical integration vs O(n) sum";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rgcorr = Estimate.correlation ctx in
  Printf.printf "%9s  %12s  %12s  %10s\n" "gates" "linear std" "integral std"
    "err (%)";
  List.iter
    (fun n ->
      let layout = Layout.square ~n () in
      let w = Layout.width layout and h = Layout.height layout in
      let lin = Estimator_linear.estimate ~corr:corr_default ~rgcorr ~layout () in
      let integ =
        if Estimator_integral.polar_applicable ~corr:corr_default ~width:w ~height:h
        then Estimator_integral.polar ~corr:corr_default ~rgcorr ~n ~width:w ~height:h ()
        else Estimator_integral.rect_2d ~corr:corr_default ~rgcorr ~n ~width:w ~height:h ()
      in
      Printf.printf "%9d  %12.4g  %12.4g  %10.4f\n" n lin.Estimator_linear.std
        integ.Estimator_integral.std
        (Float.abs (pct integ.Estimator_integral.std lin.Estimator_linear.std)))
    [ 25; 100; 400; 1600; 6400; 10_000; 40_000; 102_400; 1_000_000 ];
  Printf.printf
    "(paper: > 1%% below 100 gates, < 0.1%% for large, < 0.01%% above 10k)\n"

(* ------------------------------------------------------------------ *)
(* E8: estimator runtime scaling + Bechamel micro-benchmarks            *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_scaling () =
  section "E8a: wall-clock scaling of the three estimators";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rgcorr = Estimate.correlation ctx in
  let rng = Rng.create ~seed:9001 () in
  Printf.printf "%9s  %12s  %12s  %12s\n" "gates" "exact (s)" "linear (s)"
    "integral (s)";
  List.iter
    (fun n ->
      let exact_time =
        if n <= 20_000 then begin
          let placed = Generator.random_placed ~histogram:hist ~n ~rng () in
          let _, t =
            time_it (fun () ->
                Estimator_exact.estimate ~corr:corr_default ~rgcorr placed)
          in
          Printf.sprintf "%12.4f" t
        end
        else Printf.sprintf "%12s" "-"
      in
      let layout = Layout.square ~n () in
      let _, t_lin =
        time_it (fun () ->
            Estimator_linear.estimate ~corr:corr_default ~rgcorr ~layout ())
      in
      let w = Layout.width layout and h = Layout.height layout in
      let _, t_int =
        time_it (fun () ->
            if Estimator_integral.polar_applicable ~corr:corr_default ~width:w ~height:h
            then
              ignore
                (Estimator_integral.polar ~corr:corr_default ~rgcorr ~n ~width:w
                   ~height:h ())
            else
              ignore
                (Estimator_integral.rect_2d ~corr:corr_default ~rgcorr ~n
                   ~width:w ~height:h ()))
      in
      Printf.printf "%9d  %s  %12.4f  %12.4f\n" n exact_time t_lin t_int)
    [ 1000; 10_000; 100_489; 1_000_000 ];
  Printf.printf "(O(n^2) vs O(n) vs O(1): the integral column is flat)\n"

let run_bechamel () =
  section "E8b: Bechamel micro-benchmarks";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rgcorr = Estimate.correlation ctx in
  let rng = Rng.create ~seed:31337 () in
  let placed_400 = Generator.random_placed ~histogram:hist ~n:400 ~rng () in
  let layout_10k = Layout.square ~n:10_000 () in
  let w = Layout.width layout_10k and h = Layout.height layout_10k in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"table1-exact-pairwise-n400"
        (Staged.stage (fun () ->
             ignore
               (Estimator_exact.estimate ~corr:corr_default ~rgcorr placed_400)));
      Test.make ~name:"fig7-linear-Eq17-n10000"
        (Staged.stage (fun () ->
             ignore
               (Estimator_linear.estimate ~corr:corr_default ~rgcorr
                  ~layout:layout_10k ())));
      Test.make ~name:"fig7-integral-2d-Eq20"
        (Staged.stage (fun () ->
             ignore
               (Estimator_integral.rect_2d ~corr:corr_default ~rgcorr ~n:10_000
                  ~width:w ~height:h ())));
      Test.make ~name:"fig7-integral-polar-Eq25"
        (Staged.stage (fun () ->
             ignore
               (Estimator_integral.polar ~corr:corr_default ~rgcorr ~n:10_000
                  ~width:w ~height:h ())));
      Test.make ~name:"fig2-rg-covariance-lookup"
        (Staged.stage (fun () -> ignore (Rg_correlation.f rgcorr ~rho_l:0.5)));
      Test.make ~name:"fig6-rg-model-build"
        (Staged.stage (fun () ->
             ignore (Random_gate.create ~chars ~histogram:hist ~p:0.5 ())));
      Test.make ~name:"fig3-signal-prob-sweep"
        (Staged.stage (fun () ->
             ignore
               (Signal_prob.sweep ~points:21 chars
                  ~weights:(Histogram.to_array hist))));
    ]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ())
          [ Toolkit.Instance.monotonic_clock ]
          test
      in
      let analysis =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-34s %14.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-34s (no estimate)\n" name)
        analysis)
    tests

(* ------------------------------------------------------------------ *)
(* E8c: parallel-runtime timing, tracked as BENCH_estimators.json       *)
(* ------------------------------------------------------------------ *)

type timing_entry = {
  estimator : string;
  n : int;
  jobs_used : int;
  cpus : int;  (** CPUs available when this entry was measured *)
  seconds : float;
  seconds_1job : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  alloc : (string * float) list;
      (** normalized minor-heap allocation (words per unit of work),
          measured on a dedicated single-domain pass *)
}

let speedup e = if e.seconds > 0.0 then e.seconds_1job /. e.seconds else 1.0

(* A 1-vs-N-job wall-clock ratio only measures parallel speedup when
   the host can actually run domains side by side; on a single CPU it
   measures scheduling overhead, and publishing it as "speedup" misled
   every consumer of the v2 schema.  v3 records the availability and
   withholds the ratio when it is meaningless. *)
let speedup_meaningful e = e.cpus > 1 && e.jobs_used > 1

let nproc () = Domain.recommended_domain_count ()

let write_bench_json ~path ~jobs entries =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"rgleak-bench-estimators/4\",\n";
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"nproc\": %d,\n" (nproc ());
  Printf.fprintf oc "  \"kernel_isa\": %S,\n" (Pair_kernel.selected_isa ());
  Printf.fprintf oc "  \"fast\": %b,\n" !fast;
  Printf.fprintf oc "  \"entries\": [\n";
  let last = List.length entries - 1 in
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    { \"estimator\": %S, \"n\": %d, \"jobs\": %d, \"cpus\": %d, \
         \"seconds\": %.6f, \"seconds_1job\": %.6f,%s\n"
        e.estimator e.n e.jobs_used e.cpus e.seconds e.seconds_1job
        (if speedup_meaningful e then
           Printf.sprintf " \"speedup\": %.3f," (speedup e)
         else "");
      Printf.fprintf oc "      \"counters\": {%s},\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) e.counters));
      Printf.fprintf oc "      \"gauges\": {%s},\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %.6g" k v) e.gauges));
      Printf.fprintf oc "      \"alloc\": {%s} }%s\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %.6g" k v) e.alloc))
        (if i = last then "" else ","))
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run_timing () =
  let jobs =
    match !jobs_override with Some j -> j | None -> Parallel.default_jobs ()
  in
  section
    (Printf.sprintf
       "E8c: estimator wall-clock at 1 vs %d jobs (writes BENCH_estimators.json)"
       jobs);
  if nproc () <= 1 then
    Printf.printf
      "warning: single-CPU host (nproc = 1): the 1-vs-%d-job comparison \
       measures scheduling overhead, not parallel speedup; speedup ratios \
       are omitted from the report\n%!"
      jobs;
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rgcorr = Estimate.correlation ctx in
  let rng = Rng.create ~seed:2718 () in
  let entries = ref [] in
  (* One timed measurement on the shared pool at [j] domains: sizing the
     shared pool and running a warm-up pass first keeps domain spawning,
     cold caches and lazy tables out of the timed window (the v1 schema
     timed transient pools, charging Domain.spawn to the parallel run). *)
  let timed_at ~j run =
    Parallel.set_default_jobs j;
    ignore (run ());
    time_it run
  in
  (* Work counters and pool gauges from one instrumented pass at [jobs]
     domains, captured outside the timed windows so tracing cannot
     perturb the measurement. *)
  let observe run =
    Obs.reset ();
    Obs.set_enabled true;
    ignore (run ());
    Obs.set_enabled false;
    let snap = Obs.snapshot () in
    (snap.Obs.counters, snap.Obs.gauges)
  in
  (* Normalized minor-heap allocation from a dedicated warm pass at one
     domain with telemetry off: at jobs = 1 every word lands on the
     submitting domain's minor counter, so unlike the multi-domain
     *.minor_words gauges the delta is exact, and dividing by the work
     units (pairs, samples) makes it host-independent. *)
  let alloc_of ~units ~metric run =
    Parallel.set_default_jobs 1;
    ignore (run ());
    let w0 = Gc.minor_words () in
    ignore (run ());
    let dw = Gc.minor_words () -. w0 in
    Parallel.set_default_jobs jobs;
    [ (metric, dw /. units) ]
  in
  let bench ~estimator ~n ?alloc ~equal run =
    let r1, t1 = timed_at ~j:1 run in
    let rj, tj = timed_at ~j:jobs run in
    if not (equal r1 rj) then
      failwith (estimator ^ ": jobs=1 and parallel results differ");
    let alloc =
      match alloc with
      | None -> []
      | Some (metric, units) -> alloc_of ~units ~metric run
    in
    let counters, gauges = observe run in
    let e =
      { estimator; n; jobs_used = jobs; cpus = nproc (); seconds = tj;
        seconds_1job = t1; counters; gauges; alloc }
    in
    entries := e :: !entries;
    Printf.printf "%-12s n=%8d   1 job %8.3f s   %2d jobs %8.3f s   %s\n%!"
      estimator n t1 jobs tj
      (if speedup_meaningful e then Printf.sprintf "speedup %.2fx" (speedup e)
       else "(single CPU: no speedup)")
  in
  let bits = Int64.bits_of_float in
  (* The O(n²) exact pair loop — the headline parallel path. *)
  let n_exact = if !fast then 5_000 else 20_000 in
  let placed = Generator.random_placed ~histogram:hist ~n:n_exact ~rng () in
  bench ~estimator:"exact" ~n:n_exact
    ~alloc:
      ( "minor_words_per_pair",
        float_of_int n_exact *. float_of_int (n_exact - 1) /. 2.0 )
    ~equal:(fun a b ->
      bits a.Estimator_exact.std = bits b.Estimator_exact.std)
    (fun () -> Estimator_exact.estimate ~corr:corr_default ~rgcorr placed);
  (* The Monte Carlo reference, replica-parallel. *)
  let n_mc = if !fast then 600 else 1_200 in
  let count = if !fast then 400 else 1_500 in
  let placed_mc = Generator.random_placed ~histogram:hist ~n:n_mc ~rng () in
  let mc =
    Mc_reference.prepare ~chars ~corr:corr_default ~p:(Estimate.signal_p ctx)
      placed_mc
  in
  bench ~estimator:"mc" ~n:n_mc
    ~alloc:("minor_words_per_sample", float_of_int count)
    ~equal:( = )
    (fun () -> Mc_reference.moments_stream mc ~seed:910 ~count);
  (* Library characterization across the pool. *)
  let l_points = 33 and mc_samples = if !fast then 1_000 else 5_000 in
  bench ~estimator:"characterize" ~n:Library.size
    ~equal:(fun a b ->
      bits a.(0).Characterize.states.(0).Characterize.mu_analytic
      = bits b.(0).Characterize.states.(0).Characterize.mu_analytic)
    (fun () ->
      Characterize.characterize_library ~l_points ~mc_samples ~param
        ~seed:1729 ());
  (* The O(n) and O(1) estimators for scale context (single-domain). *)
  let n_lin = if !fast then 40_000 else 1_000_000 in
  let layout = Layout.square ~n:n_lin () in
  bench ~estimator:"linear" ~n:n_lin ~equal:(fun _ _ -> true) (fun () ->
      Estimator_linear.estimate ~corr:corr_default ~rgcorr ~layout ());
  let w = Layout.width layout and h = Layout.height layout in
  bench ~estimator:"integral" ~n:n_lin ~equal:(fun _ _ -> true) (fun () ->
      if
        Estimator_integral.polar_applicable ~corr:corr_default ~width:w
          ~height:h
      then
        Estimator_integral.polar ~corr:corr_default ~rgcorr ~n:n_lin ~width:w
          ~height:h ()
      else
        Estimator_integral.rect_2d ~corr:corr_default ~rgcorr ~n:n_lin ~width:w
          ~height:h ());
  Parallel.set_default_jobs jobs;
  let path = "BENCH_estimators.json" in
  write_bench_json ~path ~jobs (List.rev !entries);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E8d: disabled-telemetry overhead budget                              *)
(* ------------------------------------------------------------------ *)

(* Asserts that the instrumentation compiled into the exact hot loop
   costs under 1% of its runtime while telemetry is disabled.  The
   per-site cost of a disabled probe (one atomic load and a branch) is
   measured with a microloop; the number of sites one estimate executes
   is read off an instrumented pass (row counts plus band spans); the
   product is compared against the measured uninstrumented runtime. *)
let run_overhead () =
  section "E8d: disabled-telemetry and disarmed-fault overhead on the exact hot loop";
  Obs.set_enabled false;
  Guard.Fault.clear ();
  let probes = 20_000_000 in
  let t0 = Obs.now_ns () in
  for _ = 1 to probes do
    Obs.count "overhead.probe" 1
  done;
  let site_ns =
    Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. float_of_int probes
  in
  (* Disabled histogram-record probe: like every other primitive it
     must reduce to one atomic load and a branch. *)
  let t0 = Obs.now_ns () in
  for _ = 1 to probes do
    Obs.hist_record "overhead.hist" 1.0
  done;
  let hist_site_ns =
    Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. float_of_int probes
  in
  (* Same discipline for a disarmed fault probe: one atomic load and a
     branch.  Accumulate the results so the loop cannot be dropped. *)
  let fired = ref 0 in
  let t0 = Obs.now_ns () in
  for _ = 1 to probes do
    if Guard.Fault.fire "parallel" then incr fired
  done;
  let fault_ns =
    Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. float_of_int probes
  in
  if !fired > 0 then failwith "disarmed fault probe fired";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rgcorr = Estimate.correlation ctx in
  let rng = Rng.create ~seed:2718 () in
  let n = if !fast then 5_000 else 10_000 in
  let placed = Generator.random_placed ~histogram:hist ~n ~rng () in
  let run () = Estimator_exact.estimate ~corr:corr_default ~rgcorr placed in
  ignore (run ());
  let _, seconds = time_it run in
  Obs.reset ();
  Obs.set_enabled true;
  ignore (run ());
  Obs.set_enabled false;
  let snap = Obs.snapshot () in
  let counter name =
    match List.assoc_opt name snap.Obs.counters with Some v -> v | None -> 0
  in
  (* Sites per run: one counter bump per 256-row kernel tile (the old
     per-row bump went away with the flat kernel — pair counting is now
     a single bulk count), ~4 probes per pool band (task count, busy
     gauge, span open/close) and a handful of top-level spans and
     counters. *)
  let sites =
    float_of_int (counter "exact.tiles")
    +. (4.0 *. float_of_int (counter "pool.bands"))
    +. 16.0
  in
  (* Histogram-record sites per exact run: the per-band kernel timer
     adds two enabled-checks (clock gate + record gate) per band;
     price both at the measured hist-probe cost. *)
  let hist_sites = 2.0 *. float_of_int (counter "pool.bands") in
  (* Fault probes per exact run: one "parallel" probe at every pool-band
     task entry. *)
  let fault_sites = float_of_int (counter "pool.bands") in
  let telemetry_overhead = sites *. site_ns /. 1e9 /. seconds in
  let hist_overhead = hist_sites *. hist_site_ns /. 1e9 /. seconds in
  let fault_overhead = fault_sites *. fault_ns /. 1e9 /. seconds in
  let overhead = telemetry_overhead +. hist_overhead +. fault_overhead in
  let budget = 0.01 in
  Printf.printf "disabled obs probe    : %.2f ns/site\n" site_ns;
  Printf.printf "disabled hist probe   : %.2f ns/site\n" hist_site_ns;
  Printf.printf "disarmed fault probe  : %.2f ns/site\n" fault_ns;
  Printf.printf "sites per exact run   : %.0f obs + %.0f hist + %.0f fault (n=%d)\n"
    sites hist_sites fault_sites n;
  Printf.printf "exact runtime         : %.4f s\n" seconds;
  Printf.printf "overhead              : %.5f%% of runtime (budget %.1f%%)\n"
    (100.0 *. overhead) (100.0 *. budget);
  let path = "BENCH_overhead.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"rgleak-overhead/3\",\n\
    \  \"site_ns\": %.4f,\n\
    \  \"hist_site_ns\": %.4f,\n\
    \  \"fault_probe_ns\": %.4f,\n\
    \  \"sites_per_run\": %.0f,\n\
    \  \"hist_sites_per_run\": %.0f,\n\
    \  \"fault_sites_per_run\": %.0f,\n\
    \  \"exact_n\": %d,\n\
    \  \"exact_seconds\": %.6f,\n\
    \  \"telemetry_overhead_fraction\": %.8f,\n\
    \  \"hist_overhead_fraction\": %.8f,\n\
    \  \"fault_overhead_fraction\": %.8f,\n\
    \  \"overhead_fraction\": %.8f,\n\
    \  \"budget_fraction\": %.3f,\n\
    \  \"pass\": %b\n\
     }\n"
    site_ns hist_site_ns fault_ns sites hist_sites fault_sites n seconds
    telemetry_overhead hist_overhead fault_overhead overhead budget
    (overhead < budget);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if overhead >= budget then
    failwith
      "instrumentation overhead budget exceeded: disabled probes cost >= 1%"

(* ------------------------------------------------------------------ *)
(* E9: Vt variance negligibility                                        *)
(* ------------------------------------------------------------------ *)

let run_e9 () =
  section "E9: independent-Vt variance share vs correlated-L variance";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rg = Estimate.random_gate ctx in
  let rgcorr = Estimate.correlation ctx in
  Printf.printf "Vt mean multiplier (25 mV RDF): %.4f\n"
    (Vt_correction.mean_factor ());
  Printf.printf "%9s  %14s\n" "gates" "var(Vt)/var(L)";
  List.iter
    (fun n ->
      let ratio =
        Vt_correction.variance_ratio ~rg ~rgcorr ~corr:corr_default
          ~layout:(Layout.square ~n ()) ()
      in
      Printf.printf "%9d  %14.6f\n" n ratio)
    [ 100; 900; 10_000; 102_400; 1_000_000 ];
  Printf.printf
    "(paper 2.1: n sigma^2 vs n^2 sigma^2 -- Vt is negligible for large n)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  section "A1: spatial-correlation family ablation (same design, n = 10000)";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let n = 10_000 in
  let layout = Layout.square ~n () in
  List.iter
    (fun (label, fam) ->
      let corr = Corr_model.create fam param in
      let ctx = Estimate.context ~chars ~corr ~histogram:hist () in
      let r =
        Estimator_linear.estimate ~corr ~rgcorr:(Estimate.correlation ctx)
          ~layout ()
      in
      Printf.printf "%-28s std = %10.4g (%.2f%% of mean)\n" label
        r.Estimator_linear.std
        (100.0 *. r.Estimator_linear.std /. r.Estimator_linear.mean))
    [
      ("linear dmax=120um", Corr_model.Spherical { dmax = 120.0 });
      ("spherical dmax=120um", Corr_model.Spherical { dmax = 120.0 });
      ("exponential range=60um", Corr_model.Exponential { range = 60.0 });
      ("gaussian range=80um", Corr_model.Gaussian { range = 80.0 });
      ( "trunc-exp range=60,dmax=120",
        Corr_model.Truncated_exponential { range = 60.0; dmax = 120.0 } );
    ];

  section "A2: characterization resolution ablation (NAND2 state 00)";
  let fine = chars.(Library.index_of "NAND2_X1") in
  let ref_sc = fine.Characterize.states.(0) in
  List.iter
    (fun l_points ->
      let rng = Rng.create ~seed:808 () in
      let ch =
        Characterize.characterize ~l_points ~mc_samples:2000 ~param ~rng
          (Library.find "NAND2_X1")
      in
      let sc = ch.Characterize.states.(0) in
      Printf.printf
        "l_points=%3d  mu=%.5f (drift %+.3f%%)  sigma=%.5f (drift %+.3f%%)\n"
        l_points sc.Characterize.mu_analytic
        (pct sc.Characterize.mu_analytic ref_sc.Characterize.mu_analytic)
        sc.Characterize.sigma_analytic
        (pct sc.Characterize.sigma_analytic ref_sc.Characterize.sigma_analytic))
    [ 17; 33; 65; 97 ];

  section "A3: placement-strategy ablation (same netlist, n = 2500)";
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rng = Rng.create ~seed:606 () in
  let netlist = Generator.random_netlist ~histogram:hist ~n:2500 ~rng () in
  let layout = Layout.square ~n:2500 () in
  List.iter
    (fun (label, strategy) ->
      let placed = Placer.place ~strategy ~rng netlist layout in
      let tr =
        Estimator_exact.estimate ~corr:corr_default
          ~rgcorr:(Estimate.correlation ctx) placed
      in
      Printf.printf "%-12s true std = %.4g\n" label tr.Estimator_exact.std)
    [ ("sequential", Placer.Sequential); ("random", Placer.Random);
      ("clustered", Placer.Clustered) ]

(* ------------------------------------------------------------------ *)
(* Extension experiments                                               *)
(* ------------------------------------------------------------------ *)

let run_ext_temperature () =
  section "X1: leakage vs junction temperature (device-model extension)";
  let hist = Lazy.force default_hist in
  Printf.printf "%8s  %14s  %14s\n" "T (C)" "mean (uA)" "sigma (uA)";
  List.iter
    (fun temp_c ->
      let env = Rgleak_device.Mosfet.env_at ~temp_k:(273.15 +. temp_c) () in
      let chars_t =
        Characterize.characterize_library ~l_points:49 ~mc_samples:500 ~env
          ~param ~seed:1729 ()
      in
      let r =
        Estimate.early ~chars:chars_t ~corr:corr_default
          {
            Estimate.histogram = hist;
            n = 100_489;
            width = 1268.0;
            height = 1268.0;
          }
      in
      Printf.printf "%8.0f  %14.2f  %14.2f\n" temp_c
        (r.Estimate.mean /. 1000.0)
        (r.Estimate.std /. 1000.0))
    [ 25.0; 50.0; 75.0; 100.0; 125.0 ];
  Printf.printf "(subthreshold leakage grows steeply with T: V_th drop + kT/q)\n"

let run_ext_distribution () =
  section "X2: full leakage distribution vs brute-force Monte Carlo";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let rng = Rng.create ~seed:515 () in
  let placed = Generator.random_placed ~histogram:hist ~n:900 ~rng () in
  let ctx =
    Estimate.context ~p:0.5 ~chars ~corr:corr_default
      ~histogram:(Histogram.of_netlist placed.Placer.netlist) ()
  in
  let tr =
    Estimator_exact.estimate ~corr:corr_default
      ~rgcorr:(Estimate.correlation ctx) placed
  in
  let d =
    Distribution.of_moments ~mean:tr.Estimator_exact.mean
      ~std:tr.Estimator_exact.std ()
  in
  let dn =
    Distribution.of_moments ~shape:Distribution.Normal
      ~mean:tr.Estimator_exact.mean ~std:tr.Estimator_exact.std ()
  in
  let mc = Mc_reference.prepare ~chars ~corr:corr_default ~p:0.5 placed in
  let count = if !fast then 2000 else 8000 in
  let samples = Mc_reference.sample_many mc (Rng.create ~seed:516 ()) ~count in
  Printf.printf "n=900 random circuit, %d MC dies\n" count;
  Printf.printf "%8s  %12s  %12s  %12s\n" "quantile" "MC" "lognormal" "normal";
  List.iter
    (fun q ->
      Printf.printf "%8.3f  %12.1f  %12.1f  %12.1f\n" q
        (Stats.percentile samples (100.0 *. q))
        (Distribution.quantile d q)
        (Distribution.quantile dn q))
    [ 0.05; 0.25; 0.5; 0.75; 0.95; 0.99 ];
  Printf.printf
    "(the lognormal tracks the skewed MC tails; the normal undershoots)\n"

let run_ext_extraction () =
  section "X3: spatial-correlation extraction roundtrip (Xiong-style)";
  let truth = Corr_model.create (Corr_model.Spherical { dmax = 100.0 }) param in
  let rng = Rng.create ~seed:717 () in
  let locations =
    Array.init 81 (fun i ->
        {
          Variation.x = float_of_int (i mod 9) *. 22.0;
          y = float_of_int (i / 9) *. 22.0;
        })
  in
  let sampler = Variation.prepare truth locations in
  let dies = if !fast then 150 else 500 in
  let values = Array.init dies (fun _ -> Variation.sample sampler rng) in
  let samples = Corr_fit.empirical ~values ~locations ~bins:16 () in
  Printf.printf "truth: spherical dmax=100um, floor=0.50; %d dies measured\n" dies;
  Printf.printf "%-14s %10s %8s %12s\n" "family" "scale" "floor" "rss";
  List.iter
    (fun (r : Corr_fit.result) ->
      Printf.printf "%-14s %10.1f %8.3f %12.5f\n"
        (Corr_fit.family_name r.Corr_fit.family)
        r.Corr_fit.scale r.Corr_fit.floor r.Corr_fit.rss)
    (Corr_fit.fit ~sigma_total:(Process_param.sigma_total param) samples);
  let best = Corr_fit.best ~sigma_total:(Process_param.sigma_total param) samples in
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let layout = Layout.square ~n:2500 () in
  let std_of corr =
    let ctx = Estimate.context ~p:0.5 ~chars ~corr ~histogram:hist () in
    (Estimator_linear.estimate ~corr ~rgcorr:(Estimate.correlation ctx) ~layout ())
      .Estimator_linear.std
  in
  Printf.printf "chip sigma with truth: %.1f, with extracted model: %.1f (%.2f%%)\n"
    (std_of truth)
    (std_of best.Corr_fit.model)
    (Float.abs (pct (std_of best.Corr_fit.model) (std_of truth)))

let run_ext_regions () =
  section "X4: hierarchical multi-region estimation";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  (* consistency: a partition must reproduce the whole *)
  let single =
    Estimate.early ~p:0.5 ~method_:Estimate.Integral_2d ~chars
      ~corr:corr_default
      { Estimate.histogram = hist; n = 10_000; width = 400.0; height = 400.0 }
  in
  let quarter ~label ~x ~y =
    Multi_region.region ~label ~histogram:hist ~n:2500 ~x ~y ~width:200.0
      ~height:200.0 ()
  in
  let multi =
    Multi_region.estimate ~p:0.5 ~chars ~corr:corr_default
      [
        quarter ~label:"q00" ~x:0.0 ~y:0.0;
        quarter ~label:"q10" ~x:200.0 ~y:0.0;
        quarter ~label:"q01" ~x:0.0 ~y:200.0;
        quarter ~label:"q11" ~x:200.0 ~y:200.0;
      ]
  in
  Printf.printf
    "partition check: whole-die sigma %.2f vs 4-quadrant sigma %.2f (%.3f%%)\n"
    single.Estimate.std multi.Multi_region.std
    (Float.abs (pct multi.Multi_region.std single.Estimate.std));
  (* heterogeneous floorplan *)
  let sram = Histogram.of_weights [ ("SRAM6T", 1.0) ] in
  let het =
    Multi_region.estimate ~chars ~corr:corr_default
      [
        Multi_region.region ~label:"logic" ~histogram:hist ~n:8000 ~x:0.0
          ~y:0.0 ~width:300.0 ~height:300.0 ();
        Multi_region.region ~label:"sram" ~histogram:sram ~n:65_536 ~x:300.0
          ~y:0.0 ~width:300.0 ~height:300.0 ();
      ]
  in
  Printf.printf
    "heterogeneous die: mean %.4g, sigma %.4g, cross-region share %.0f%%\n"
    het.Multi_region.mean het.Multi_region.std
    (100.0 *. het.Multi_region.cross_share)

let run_ext_corners () =
  section "X5: process/temperature corner table";
  let hist = Lazy.force default_hist in
  let layout = Layout.square ~n:50_000 () in
  let spec =
    {
      Estimate.histogram = hist;
      n = 50_000;
      width = Layout.width layout;
      height = Layout.height layout;
    }
  in
  let results = Corners.analyze ~param ~corr:corr_default ~spec () in
  Format.printf "%a" Corners.pp results;
  let w = Corners.worst results in
  Printf.printf "worst corner: %s (%.1fx the typical mean)\n"
    w.Corners.corner.Corners.name
    (w.Corners.mean
    /. (List.find
          (fun r -> r.Corners.corner.Corners.name = "TT/25C")
          results)
         .Corners.mean)

let run_ext_profile () =
  section "X6: variance decomposition by pair separation";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let n = 10_000 in
  let layout = Layout.square ~n () in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let prof =
    Variance_profile.compute ~corr:corr_default
      ~rgcorr:(Estimate.correlation ctx) ~n ~width:(Layout.width layout)
      ~height:(Layout.height layout) ()
  in
  Format.printf "%a" Variance_profile.pp prof;
  Printf.printf "half-variance radius: %.1f um (die %.0f x %.0f, dmax 120)\n"
    (Variance_profile.radius_for_share prof ~share:0.5)
    (Layout.width layout) (Layout.height layout)

let run_ext_map () =
  section "X7: spatial leakage map and hotspot ratio";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let rg = Random_gate.create ~chars ~histogram:hist ~p:0.5 () in
  let n = 100_000 in
  let layout = Layout.square ~n () in
  let map =
    Leakage_map.compute ~tiles:12
      ~samples:(if !fast then 150 else 500)
      ~rg ~corr:corr_default ~n ~width:(Layout.width layout)
      ~height:(Layout.height layout) ()
  in
  print_string (Leakage_map.render map);
  Printf.printf
    "hotspot ratio %.3f; total of tile means %.4g vs chip mean %.4g (%.2f%%)\n"
    map.Leakage_map.hotspot_ratio (Leakage_map.total_mean map)
    (float_of_int n *. rg.Random_gate.mu)
    (Float.abs
       (pct (Leakage_map.total_mean map) (float_of_int n *. rg.Random_gate.mu)))

let run_baseline () =
  section "B1: cited baselines ([3] grid/PCA, [4] quadtree) vs RG vs exact";
  let chars = Lazy.force chars in
  Printf.printf "%-7s %9s | %9s %7s | %9s %7s | %9s %7s\n" "circuit"
    "true std" "CS std" "err" "AR std" "err" "RG std" "err";
  List.iter
    (fun name ->
      let placed = Benchmarks.placed (Benchmarks.find name) in
      let tr = Estimate.true_leakage ~chars ~corr:corr_default placed in
      let cs =
        Rgleak_baseline.Chang_sapatnekar.analyze ~chars ~corr:corr_default placed
      in
      let ar = Rgleak_baseline.Agarwal_roy.analyze ~chars ~corr:corr_default placed in
      let rg = Estimate.late ~chars ~corr:corr_default ~method_:Estimate.Linear placed in
      Printf.printf
        "%-7s %9.1f | %9.1f %+6.1f%% | %9.1f %+6.1f%% | %9.1f %+6.1f%%\n" name
        tr.Estimate.std cs.Rgleak_baseline.Chang_sapatnekar.std
        (pct cs.Rgleak_baseline.Chang_sapatnekar.std tr.Estimate.std)
        ar.Rgleak_baseline.Agarwal_roy.std
        (pct ar.Rgleak_baseline.Agarwal_roy.std tr.Estimate.std)
        rg.Estimate.std
        (pct rg.Estimate.std tr.Estimate.std))
    [ "c432"; "c880"; "c1908"; "c2670"; "c5315"; "c7552"; "c6288" ];
  Printf.printf
    "(both baselines use the first-order lognormal gate model, dropping the\n\
    \ log-quadratic curvature: ~-3%% mean, -7..-11%% sigma on this library;\n\
    \ the RG model keeps the exact cell law and stays within ~1%%)\n"

let run_ext_sleep () =
  section "X8: sleep-vector search (standby-leakage application)";
  let chars = Lazy.force chars in
  Printf.printf "%-8s %9s %12s %12s %10s\n" "circuit" "controls" "random nA"
    "best nA" "reduction";
  List.iter
    (fun name ->
      let nl = Benchmarks.netlist (Benchmarks.find name) in
      let sim = Sleep_vector.compile ~chars nl in
      let rng = Rng.create ~seed:11 () in
      let r =
        Sleep_vector.search ~restarts:(if !fast then 3 else 8) ~rng sim
      in
      Printf.printf "%-8s %9d %12.1f %12.1f %9.1f%%\n" name
        (Sleep_vector.num_controls sim)
        r.Sleep_vector.random_mean r.Sleep_vector.cost
        (100.0 *. r.Sleep_vector.improvement))
    [ "c432"; "c880"; "c1908"; "c2670" ];
  Printf.printf
    "(the paper's per-gate state spread, harvested: parking gates in\n\
    \ stacked-off states cuts standby leakage)\n"

let run_ext_within_cell () =
  section "X9: within-cell correlation assumption (paper 2.1.1) ablation";
  let env = Rgleak_device.Mosfet.default_env in
  let mu = param.Process_param.nominal in
  let sigma = Process_param.sigma_total param in
  let samples = if !fast then 3_000 else 10_000 in
  Printf.printf
    "MC cell moments when within-cell device lengths are only partially\n\
     correlated (rho_w = 1 is the paper's assumption):\n";
  Printf.printf "%-22s %6s | %10s %10s | %9s %9s\n" "cell/state" "rho_w" "mu"
    "sigma" "d mu" "d sigma";
  List.iter
    (fun (name, state_idx) ->
      let cell = Library.find name in
      let state = Cell.state_of_index cell state_idx in
      let ndev = Cell.device_count cell in
      let moments rho_w seed =
        let rng = Rng.create ~seed () in
        let acc = Stats.Acc.create () in
        let sr = sqrt rho_w and si = sqrt (1.0 -. rho_w) in
        for _ = 1 to samples do
          let shared = Rng.gaussian rng in
          let deltas =
            Array.init ndev (fun _ ->
                mu +. (sigma *. ((sr *. shared) +. (si *. Rng.gaussian rng))))
          in
          Stats.Acc.add acc
            (Cell.leakage ~l_of_device:(fun i -> deltas.(i)) ~env cell state)
        done;
        (Stats.Acc.mean acc, Stats.Acc.std acc)
      in
      let mu1, s1 = moments 1.0 1001 in
      List.iter
        (fun rho_w ->
          let m, s = moments rho_w 1001 in
          Printf.printf "%-22s %6.2f | %10.5f %10.5f | %+8.2f%% %+8.2f%%\n"
            (name ^ "/" ^ string_of_int state_idx)
            rho_w m s (pct m mu1) (pct s s1))
        [ 1.0; 0.9; 0.5; 0.0 ])
    [ ("NAND4_X1", 0); ("NOR4_X1", 0); ("FA_X1", 0); ("AOI22_X1", 0) ];
  Printf.printf
    "(full correlation is conservative: decorrelating devices inside a cell\n\
    \ barely moves the mean but shrinks the per-cell sigma, so the paper's\n\
    \ assumption errs on the safe side -- and is physically right anyway,\n\
    \ since a cell spans ~1 um against a >100 um correlation length)\n"

let run_ext_vdd () =
  section "X10: leakage vs supply voltage (DIBL effect)";
  let hist = Lazy.force default_hist in
  let layout = Layout.square ~n:50_000 () in
  let spec =
    {
      Estimate.histogram = hist;
      n = 50_000;
      width = Layout.width layout;
      height = Layout.height layout;
    }
  in
  Printf.printf "%8s %12s %12s %14s\n" "Vdd (V)" "mean (uA)" "sigma (uA)"
    "power (uW)";
  List.iter
    (fun vdd ->
      let env = Rgleak_device.Mosfet.env_at ~vdd ~temp_k:300.0 () in
      let chars_v =
        Characterize.characterize_library ~l_points:49 ~mc_samples:500 ~env
          ~param ~seed:1729 ()
      in
      let r = Estimate.early ~chars:chars_v ~corr:corr_default spec in
      Printf.printf "%8.2f %12.2f %12.2f %14.2f\n" vdd
        (r.Estimate.mean /. 1000.0)
        (r.Estimate.std /. 1000.0)
        (r.Estimate.mean /. 1000.0 *. vdd))
    [ 1.2; 1.1; 1.0; 0.9; 0.8 ];
  Printf.printf
    "(supply scaling cuts leakage power twice: through DIBL-reduced current\n\
    \ and through the V*I product)\n"

let run_ext_tail () =
  let module Tail_test = Rgleak_valid.Tail_test in
  section "X11: tail exceedance -- importance sampling vs brute force";
  let setup = Tail_test.prepare ~seed:42 Tail_test.default_scenario in
  let is_replicas = if !fast then 200 else 400 in
  let bf_replicas = 10 * is_replicas in
  Printf.printf "%8s | %22s | %32s | %6s\n" "level" "IS p (SE), n" "brute-force p [wilson], n" "pass";
  List.iter
    (fun level ->
      let budget = Tail_test.budget_at setup ~level in
      let eq =
        Tail_test.equivalence ~budget ~bf_replicas ~is_replicas setup
      in
      Printf.printf
        "%8g | %9.3g (%8.2g) %5d | %9.3g [%8.3g, %8.3g] %6d | %s\n" level
        eq.Tail_test.eq_is_p eq.Tail_test.eq_is_se is_replicas
        eq.Tail_test.eq_bf_p eq.Tail_test.eq_bf_lo eq.Tail_test.eq_bf_hi
        bf_replicas
        (if eq.Tail_test.eq_pass then "yes" else "NO"))
    [ 0.95; 0.99 ];
  Printf.printf
    "(the importance-sampled estimate lands inside the Wilson CI of a\n\
    \ brute-force run spending 10x the replicas: the mean shift puts about\n\
    \ half the proposal mass past the budget instead of the tail fraction)\n"

(* ------------------------------------------------------------------ *)
(* X12: incremental delta re-estimation vs full exact re-estimation    *)
(* ------------------------------------------------------------------ *)

(* Read-modify-write merge of extension entries into the committed
   timing document: the bench gate hard-fails on baseline entries
   missing from the current run, so `--run ext-delta` must never
   clobber what `--run timing` wrote — it only replaces rows whose
   estimator name it owns.  When the file is absent or unreadable a
   fresh document is started instead. *)
let bench_schema = "rgleak-bench-estimators/4"

let merge_bench_entries ~path entries =
  let names =
    List.filter_map
      (fun e ->
        match Vjson.mem "estimator" e with
        | Some (Vjson.Str s) -> Some s
        | _ -> None)
      entries
  in
  let existing =
    match Vjson.parse_file path with
    | doc -> (
      match (doc, Vjson.mem "schema" doc, Vjson.mem "entries" doc) with
      | Vjson.Obj kvs, Some (Vjson.Str s), Some (Vjson.Arr es)
        when s = bench_schema ->
        Some (kvs, es)
      | _ -> None)
    | exception (Sys_error _ | Vjson.Parse_error _) -> None
  in
  let header, kept =
    match existing with
    | Some (kvs, es) ->
      ( List.filter (fun (k, _) -> k <> "entries") kvs,
        List.filter
          (fun e ->
            match Vjson.mem "estimator" e with
            | Some (Vjson.Str name) -> not (List.mem name names)
            | _ -> true)
          es )
    | None ->
      ( [
          ("schema", Vjson.Str bench_schema);
          ("jobs", Vjson.Num (float_of_int (Parallel.default_jobs ())));
          ("nproc", Vjson.Num (float_of_int (nproc ())));
          ("kernel_isa", Vjson.Str (Pair_kernel.selected_isa ()));
          ("fast", Vjson.Bool !fast);
        ],
        [] )
  in
  let doc = Vjson.Obj (header @ [ ("entries", Vjson.Arr (kept @ entries)) ]) in
  let oc = open_out path in
  output_string oc (Vjson.to_string ~indent:2 doc);
  close_out oc

let run_ext_delta () =
  let jobs =
    match !jobs_override with Some j -> j | None -> Parallel.default_jobs ()
  in
  section "X12: delta swap latency vs full exact re-estimation (ext-delta)";
  let chars = Lazy.force chars in
  let hist = Lazy.force default_hist in
  let ctx = Estimate.context ~chars ~corr:corr_default ~histogram:hist () in
  let rgcorr = Estimate.correlation ctx in
  let rng = Rng.create ~seed:7411 () in
  let n = if !fast then 20_000 else 100_000 in
  let placed = Generator.random_placed ~histogram:hist ~n ~rng () in
  Parallel.set_default_jobs jobs;
  (* The cost a flavor change pays without the delta path: one full
     O(n²) exact re-estimate.  Warm pass first so lazy covariance
     tables stay out of the timed window. *)
  let full () = Estimator_exact.estimate ~corr:corr_default ~rgcorr placed in
  ignore (full ());
  let _, full_s = time_it full in
  (* The delta state (its cold build is itself a full pair loop), then
     a randomized swap plan through all three flavors. *)
  let st0, create_s =
    time_it (fun () ->
        Delta.create
          ~flavors:(Array.make n Vt_correction.Lvt)
          ~corr:corr_default ~rgcorr placed)
  in
  let swaps = if !fast then 48 else 96 in
  let swap_rng = Rng.create ~seed:7412 () in
  let plan =
    Array.init swaps (fun _ ->
        ( Rng.int swap_rng n,
          Vt_correction.all_flavors.(Rng.int swap_rng 3) ))
  in
  let apply_plan st0 =
    Array.fold_left
      (fun st (cell, flavor) -> fst (Delta.apply_swap st ~cell ~flavor))
      st0 plan
  in
  let st_warm = apply_plan st0 in
  let timed_plan ~j =
    Parallel.set_default_jobs j;
    let t0 = Unix.gettimeofday () in
    let st = apply_plan st0 in
    (st, Unix.gettimeofday () -. t0)
  in
  let _, total_1 = timed_plan ~j:1 in
  let st_final, total_j = timed_plan ~j:jobs in
  Parallel.set_default_jobs jobs;
  let swap_s = total_j /. float_of_int swaps in
  let swaps_per_s = if swap_s > 0.0 then 1.0 /. swap_s else 0.0 in
  let speedup = if swap_s > 0.0 then full_s /. swap_s else infinity in
  let create_ratio = create_s /. full_s in
  (* Correctness anchor: the swapped-to state must report the same bits
     as a cold rebuild of its final flavor assignment (the delta test
     battery pins this per-tier; here it guards the benchmarked path). *)
  let cold =
    Delta.create ~flavors:(Delta.flavors st_final) ~corr:corr_default ~rgcorr
      placed
  in
  let bits = Int64.bits_of_float in
  let tier_eq (a : Delta.tier) (b : Delta.tier) =
    bits a.Delta.mean = bits b.Delta.mean
    && bits a.Delta.variance = bits b.Delta.variance
  in
  let ri = Delta.result st_final and rc = Delta.result cold in
  if
    not
      (tier_eq ri.Delta.exact rc.Delta.exact
      && tier_eq ri.Delta.linear rc.Delta.linear
      && tier_eq ri.Delta.integral rc.Delta.integral)
  then failwith "ext-delta: swapped state differs from cold rebuild";
  ignore st_warm;
  Printf.printf "n = %d gates, %d-swap plan, %d jobs\n" n swaps jobs;
  Printf.printf "full exact re-estimate : %10.4f s\n" full_s;
  Printf.printf "delta state cold build : %10.4f s\n" create_s;
  Printf.printf "delta swap             : %10.6f s/swap (%.0f swaps/s)\n"
    swap_s swaps_per_s;
  Printf.printf "speedup vs full        : %10.1fx (acceptance: >= 50x)\n"
    speedup;
  Printf.printf "cold build vs full     : %10.2fx (acceptance: <= 2x)\n"
    create_ratio;
  Printf.printf "bitwise vs cold rebuild: ok (all three tiers)\n";
  let entry =
    Vjson.Obj
      [
        ("estimator", Vjson.Str "delta-swap");
        ("n", Vjson.Num (float_of_int n));
        ("jobs", Vjson.Num (float_of_int jobs));
        ("cpus", Vjson.Num (float_of_int (nproc ())));
        ("seconds", Vjson.Num total_j);
        ("seconds_1job", Vjson.Num total_1);
        ( "counters",
          Vjson.Obj [ ("delta.swaps", Vjson.Num (float_of_int swaps)) ] );
        ( "gauges",
          Vjson.Obj
            [
              ("delta.swap_s", Vjson.Num swap_s);
              ("delta.swaps_per_s", Vjson.Num swaps_per_s);
              ("delta.speedup_vs_full", Vjson.Num speedup);
              ("delta.full_exact_s", Vjson.Num full_s);
              ("delta.create_s", Vjson.Num create_s);
            ] );
        ("alloc", Vjson.Obj []);
      ]
  in
  let path = "BENCH_estimators.json" in
  merge_bench_entries ~path [ entry ];
  Printf.printf "merged delta-swap entry into %s\n" path;
  if speedup < 50.0 then
    failwith
      (Printf.sprintf
         "ext-delta: swap speedup %.1fx below the 50x acceptance floor"
         speedup);
  if create_ratio > 2.0 then
    failwith
      (Printf.sprintf
         "ext-delta: cold build %.2fx the full exact estimate, above the 2x \
          acceptance ceiling"
         create_ratio)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", run_e1);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig6", run_fig6);
    ("table1", run_table1);
    ("e6", run_e6);
    ("fig7", run_fig7);
    ("scaling", run_scaling);
    ("e9", run_e9);
    ("ablations", run_ablations);
    ("ext-temp", run_ext_temperature);
    ("ext-dist", run_ext_distribution);
    ("ext-extract", run_ext_extraction);
    ("ext-regions", run_ext_regions);
    ("ext-corners", run_ext_corners);
    ("ext-profile", run_ext_profile);
    ("ext-map", run_ext_map);
    ("baseline", run_baseline);
    ("ext-sleep", run_ext_sleep);
    ("ext-withincell", run_ext_within_cell);
    ("ext-vdd", run_ext_vdd);
    ("ext-tail", run_ext_tail);
    ("ext-delta", run_ext_delta);
  ]

let () =
  let to_run = ref [] in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--run" :: name :: rest ->
      to_run := name :: !to_run;
      parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs_override := Some j
      | Some _ | None ->
        Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Option.iter Parallel.set_default_jobs !jobs_override;
  let names = if !to_run = [] then List.map fst experiments else List.rev !to_run in
  List.iter
    (fun name ->
      if name = "timing" then run_timing ()
      else if name = "overhead" then run_overhead ()
      else if name = "microbench" then run_bechamel ()
      else
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s\n" name;
          exit 2)
    names;
  Printf.printf "\nAll requested experiments completed.\n"
