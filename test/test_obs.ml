(* Telemetry contract tests: spans nest and close (even on exceptions),
   work counters are bit-identical across job counts, the exporters
   emit well-formed JSON, and — the core guarantee — enabling tracing
   leaves every estimator result bitwise unchanged. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil
module Obs = Rgleak_obs.Obs
module Export = Rgleak_obs.Export
module Json = Rgleak_obs.Json

let bits = Int64.bits_of_float

let check_bits name expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %.17g and %.17g differ bitwise" name expected actual

(* Every test leaves the global switch off so the other suites (and
   their timing) are unaffected. *)
let with_telemetry f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect f ~finally:(fun () -> Obs.set_enabled false)

(* ---------- span semantics ---------- *)

let test_spans_nest () =
  with_telemetry @@ fun () ->
  check_true "outside any span" (Obs.current_path () = "");
  Obs.span "outer" (fun () ->
      check_true "path inside outer" (Obs.current_path () = "outer");
      Obs.span "inner" (fun () ->
          check_true "nested path" (Obs.current_path () = "outer/inner"));
      check_true "inner popped" (Obs.current_path () = "outer"));
  check_true "outer popped" (Obs.current_path () = "");
  let s = Obs.snapshot () in
  let find path =
    match
      List.find_opt (fun (e : Obs.span_event) -> e.Obs.path = path) s.Obs.spans
    with
    | Some e -> e
    | None -> Alcotest.failf "span %s not recorded" path
  in
  let outer = find "outer" and inner = find "outer/inner" in
  check_true "outer depth" (outer.Obs.depth = 0);
  check_true "inner depth" (inner.Obs.depth = 1);
  check_true "inner starts after outer"
    (Int64.compare inner.Obs.start_ns outer.Obs.start_ns >= 0);
  check_true "inner ends within outer"
    (Int64.compare
       (Int64.add inner.Obs.start_ns inner.Obs.dur_ns)
       (Int64.add outer.Obs.start_ns outer.Obs.dur_ns)
    <= 0)

let test_spans_close_on_exception () =
  with_telemetry @@ fun () ->
  (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  check_true "stack popped after raise" (Obs.current_path () = "");
  let s = Obs.snapshot () in
  check_true "raising span still recorded"
    (List.exists (fun (e : Obs.span_event) -> e.Obs.path = "boom") s.Obs.spans)

let test_disabled_is_passthrough () =
  Obs.set_enabled false;
  Obs.reset ();
  let r = Obs.span "ghost" (fun () -> Obs.count "ghost.counter" 1; 42) in
  check_true "span returns body result" (r = 42);
  let s = Obs.snapshot () in
  check_true "no spans recorded while disabled" (s.Obs.spans = []);
  check_true "no counters recorded while disabled" (s.Obs.counters = [])

(* ---------- counters are jobs-invariant ---------- *)

(* Work counters count items of the problem decomposition (pairs,
   replicas, cells, chunks, bands), never pool activity per domain, so
   the merged values must be identical for jobs = 1, 2 and 4. *)
let counters_with_jobs run j =
  with_telemetry @@ fun () ->
  run j;
  (Obs.snapshot ()).Obs.counters

let check_counters_invariant name run =
  match List.map (counters_with_jobs run) [ 1; 2; 4 ] with
  | [ c1; c2; c4 ] ->
    let show c =
      String.concat "; "
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c)
    in
    if c1 <> c2 || c1 <> c4 then
      Alcotest.failf "%s counters vary with jobs:\n 1: %s\n 2: %s\n 4: %s" name
        (show c1) (show c2) (show c4);
    check_true (name ^ " produced counters") (c1 <> [])
  | _ -> assert false

let small_ctx =
  lazy
    (let chars = Characterize.default_library () in
     let corr =
       Corr_model.create
         (Corr_model.Spherical { dmax = 120.0 })
         Process_param.default_channel_length
     in
     let histogram =
       Histogram.of_weights
         [ ("INV_X1", 2.0); ("NAND2_X1", 1.0); ("DFF_X1", 1.0) ]
     in
     let ctx = Estimate.context ~chars ~corr ~histogram () in
     (chars, corr, histogram, ctx))

let test_exact_counters_invariant () =
  let _, corr, histogram, ctx = Lazy.force small_ctx in
  let rng = Rng.create ~seed:99 () in
  let placed = Generator.random_placed ~histogram ~n:300 ~rng () in
  check_counters_invariant "exact" (fun jobs ->
      ignore
        (Estimator_exact.estimate ~jobs ~corr
           ~rgcorr:(Estimate.correlation ctx) placed))

let test_mc_counters_invariant () =
  let chars, corr, histogram, _ = Lazy.force small_ctx in
  let rng = Rng.create ~seed:100 () in
  let placed = Generator.random_placed ~histogram ~n:60 ~rng () in
  let mc = Mc_reference.prepare ~chars ~corr ~p:0.5 placed in
  check_counters_invariant "mc" (fun jobs ->
      ignore (Mc_reference.moments_stream ~jobs mc ~seed:4 ~count:50))

let test_characterize_counters_invariant () =
  check_counters_invariant "characterize" (fun jobs ->
      ignore
        (Characterize.characterize_library ~l_points:9 ~mc_samples:40 ~jobs
           ~param:Process_param.default_channel_length ~seed:5 ()))

(* ---------- histograms ---------- *)

let test_hist_bucketing () =
  let module H = Obs.Hist in
  (* non-positive and NaN values land in the underflow bucket *)
  check_true "zero is underflow" (H.bucket_of 0.0 = 0);
  check_true "negative is underflow" (H.bucket_of (-3.5) = 0);
  check_true "nan is underflow" (H.bucket_of Float.nan = 0);
  (* values beyond the top octave clamp into the overflow bucket *)
  check_true "huge is overflow" (H.bucket_of 1e300 = H.overflow);
  check_true "infinity is overflow" (H.bucket_of Float.infinity = H.overflow);
  (* every ordinary value lands inside its bucket's bounds *)
  List.iter
    (fun v ->
      let b = H.bucket_of v in
      let lo, hi = H.bounds b in
      if b <= 0 || b >= H.overflow then
        Alcotest.failf "value %g unexpectedly out of the ordinary range" v;
      if not (v >= lo && v < hi) then
        Alcotest.failf "value %g outside bucket %d bounds [%g, %g)" v b lo hi)
    [ 1e-9; 2.5e-6; 1e-3; 0.5; 1.0; 1.125; 1.5; 3.0; 7.7; 1e3; 1e6 ];
  (* ordinary bucket boundaries are contiguous and strictly increasing *)
  for b = 1 to H.overflow - 2 do
    let lo, hi = H.bounds b in
    let lo', _ = H.bounds (b + 1) in
    if not (lo < hi) then Alcotest.failf "bucket %d is empty" b;
    if bits hi <> bits lo' then
      Alcotest.failf "buckets %d and %d are not contiguous" b (b + 1)
  done

let test_hist_quantiles () =
  let s =
    with_telemetry @@ fun () ->
    for i = 1 to 100 do
      Obs.hist_record "lat" (float_of_int i)
    done;
    Obs.snapshot ()
  in
  let h = List.assoc "lat" s.Obs.hists in
  check_true "count" (h.Obs.h_count = 100);
  check_bits "exact min tracked" 1.0 h.Obs.h_min;
  check_bits "exact max tracked" 100.0 h.Obs.h_max;
  let q p = Obs.hist_quantile h p in
  (* the rank-50 sample is 50; its bucket upper bound is within the
     1/sub relative bucket width *)
  check_true "p50 within one bucket of the true median"
    (q 0.5 >= 50.0 && q 0.5 <= 50.0 *. (1.0 +. 2.0 /. float_of_int Obs.Hist.sub));
  check_true "quantiles are monotone"
    (q 0.1 <= q 0.5 && q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
  check_bits "p100 is the exact max" 100.0 (q 1.0);
  check_true "p0 is bounded by the first bucket"
    (q 0.0 >= 1.0 && q 0.0 <= 1.0 *. (1.0 +. 2.0 /. float_of_int Obs.Hist.sub))

(* Extreme quantiles are where the old ceil-based rank overshot: for
   10_000 samples, 0.9999 *. 10000. rounds to 9999.000000000002, whose
   ceiling is rank 10_000 — silently reporting the max instead of the
   rank-9999 sample.  The near-integer snap must keep p999/p9999 inside
   their own buckets. *)
let test_hist_extreme_quantiles () =
  let s =
    with_telemetry @@ fun () ->
    for i = 1 to 10_000 do
      Obs.hist_record "tailq" (float_of_int i)
    done;
    Obs.snapshot ()
  in
  let h = List.assoc "tailq" s.Obs.hists in
  let q p = Obs.hist_quantile h p in
  let rel = 2.0 /. float_of_int Obs.Hist.sub in
  (* rank 0.999 * 10000 = 9990, rank 0.9999 * 10000 = 9999: both must
     resolve below the exact max, within one bucket of the true sample *)
  check_true "p999 within one bucket of rank 9990"
    (q 0.999 >= 9990.0 *. (1.0 -. rel) && q 0.999 <= 9990.0 *. (1.0 +. rel));
  check_true "p9999 within one bucket of rank 9999"
    (q 0.9999 >= 9999.0 *. (1.0 -. rel) && q 0.9999 <= 9999.0 *. (1.0 +. rel));
  check_true "p9999 below the exact max" (q 0.9999 < 10_000.0);
  check_bits "p100 still the exact max" 10_000.0 (q 1.0)

let test_hist_quantile_overflow_clamp () =
  let s =
    with_telemetry @@ fun () ->
    Obs.hist_record "ovf" 1.0;
    Obs.hist_record "ovf" 1e300;
    Obs.hist_record "ovf" Float.infinity;
    Obs.snapshot ()
  in
  let h = List.assoc "ovf" s.Obs.hists in
  (* quantiles landing in the overflow bucket clamp to the tracked max,
     never to a bucket bound beyond it *)
  check_bits "overflow quantile clamps to exact max" Float.infinity
    (Obs.hist_quantile h 0.99);
  check_true "low quantile still finite" (Obs.hist_quantile h 0.1 < 2.0)

let test_hist_single_value () =
  let s =
    with_telemetry @@ fun () ->
    Obs.hist_record "one" 42.0;
    Obs.snapshot ()
  in
  let h = List.assoc "one" s.Obs.hists in
  List.iter
    (fun p ->
      let v = Obs.hist_quantile h p in
      if not (v >= 42.0 *. 0.99 && v <= 42.0 *. 1.01) then
        Alcotest.failf "single-value hist quantile %g gave %g" p v)
    [ 0.0; 0.5; 0.999; 0.9999; 1.0 ];
  check_bits "p100 of single value exact" 42.0 (Obs.hist_quantile h 1.0)

(* The deterministic projection of a histogram — bucket counts, count,
   min, max — must be bit-identical across job counts when the recorded
   values are; h_sum merges in registration order and is exempt, like
   gauges. *)
let hist_with_jobs j =
  with_telemetry @@ fun () ->
  Parallel.with_pool ~jobs:j (fun pool ->
      ignore
        (Parallel.parallel_for_reduce ~label:"hist-probe" pool ~n:1000
           ~init:(fun () -> 0)
           ~body:(fun acc i ->
             Obs.hist_record "probe.value"
               (float_of_int (1 + (i * 7 mod 97)));
             acc + 1)
           ~combine:( + )));
  let s = Obs.snapshot () in
  let h = List.assoc "probe.value" s.Obs.hists in
  (h.Obs.h_count, bits h.Obs.h_min, bits h.Obs.h_max, h.Obs.h_buckets)

let test_hist_merge_invariant () =
  match List.map hist_with_jobs [ 1; 2; 4 ] with
  | [ h1; h2; h4 ] ->
    if h1 <> h2 || h1 <> h4 then
      Alcotest.fail "histogram bucket merge varies with job count";
    let count, _, _, buckets = h1 in
    check_true "all samples recorded" (count = 1000);
    check_true "buckets are sparse and sorted"
      (List.sort compare buckets = buckets && buckets <> [])
  | _ -> assert false

(* ---------- tracks and caps ---------- *)

let test_dropped_tracks_counted () =
  let cap = 1 lsl 16 in
  let s =
    with_telemetry @@ fun () ->
    for i = 1 to cap + 10 do
      Obs.track "flood" (float_of_int i)
    done;
    Obs.snapshot ()
  in
  check_true "tracks stop at the per-domain cap"
    (List.length s.Obs.tracks = cap);
  check_true "excess samples counted as dropped" (s.Obs.dropped_tracks = 10)

(* ---------- tracing never changes results ---------- *)

let test_estimators_bitwise_with_tracing () =
  let _, corr, histogram, ctx = Lazy.force small_ctx in
  let rgcorr = Estimate.correlation ctx in
  let rng = Rng.create ~seed:321 () in
  let placed = Generator.random_placed ~histogram ~n:400 ~rng () in
  let layout = Layout.square ~n:2500 () in
  let w = Layout.width layout and h = Layout.height layout in
  let run_all () =
    let ex = Estimator_exact.estimate ~jobs:2 ~corr ~rgcorr placed in
    let lin = Estimator_linear.estimate ~corr ~rgcorr ~layout () in
    let pol =
      Estimator_integral.polar ~corr ~rgcorr ~n:2500 ~width:w ~height:h ()
    in
    let rect =
      Estimator_integral.rect_2d ~order:24 ~corr ~rgcorr ~n:2500 ~width:w
        ~height:h ()
    in
    [
      ("exact.mean", ex.Estimator_exact.mean);
      ("exact.std", ex.Estimator_exact.std);
      ("linear.mean", lin.Estimator_linear.mean);
      ("linear.std", lin.Estimator_linear.std);
      ("polar.std", pol.Estimator_integral.std);
      ("rect.std", rect.Estimator_integral.std);
    ]
  in
  Obs.set_enabled false;
  let off = run_all () in
  let on = with_telemetry run_all in
  List.iter2
    (fun (name, a) (_, b) -> check_bits ("tracing on vs off: " ^ name) a b)
    off on

(* ---------- exporters ---------- *)

let sample_snapshot () =
  with_telemetry @@ fun () ->
  Obs.span "alpha" (fun () ->
      Obs.count "work.items" 3;
      Obs.gauge_add "busy_s" 1.5;
      Obs.hist_record "lat_s" 0.25;
      Obs.hist_record "lat_s" 0.5;
      Obs.track "depth" 2.0;
      Obs.span "beta" (fun () -> Obs.count "work.items" 4));
  Obs.gauge_max "queue_max" 7.0;
  Obs.snapshot ()

let test_chrome_trace_valid () =
  let s = sample_snapshot () in
  let json = Json.parse (Export.chrome_trace s) in
  let events = Json.arr (Json.get "traceEvents" json) in
  let phase e = Json.str (Json.get "ph" e) in
  let xs = List.filter (fun e -> phase e = "X") events in
  check_true "has complete events" (List.length xs = 2);
  let paths =
    List.map (fun e -> Json.str (Json.get "path" (Json.get "args" e))) xs
  in
  check_true "alpha span present" (List.mem "alpha" paths);
  check_true "beta span nested path" (List.mem "alpha/beta" paths);
  List.iter
    (fun e ->
      check_true "ts is non-negative" (Json.num (Json.get "ts" e) >= 0.0);
      check_true "dur is non-negative" (Json.num (Json.get "dur" e) >= 0.0))
    xs;
  check_true "has metadata events"
    (List.exists (fun e -> phase e = "M") events);
  let counter_events = List.filter (fun e -> phase e = "C") events in
  check_true "has counter events"
    (List.exists
       (fun e -> Json.str (Json.get "name" e) = "work.items")
       counter_events);
  (* every recorded track sample becomes a timeline counter event *)
  let depth_samples =
    List.filter
      (fun e -> Json.str (Json.get "name" e) = "depth")
      counter_events
  in
  check_true "track sample rendered as a C event"
    (List.length depth_samples = 1);
  List.iter
    (fun e ->
      check_true "track C event carries its value"
        (Json.num (Json.get "value" (Json.get "args" e)) = 2.0);
      check_true "track C event is time-stamped"
        (Json.num (Json.get "ts" e) >= 0.0))
    depth_samples;
  (* round-trip: serialize the parsed document and parse it again *)
  check_true "chrome trace round-trips"
    (Json.parse (Json.to_string json) = json)

let test_metrics_json_valid () =
  let s = sample_snapshot () in
  let json = Json.parse (Export.metrics_json s) in
  check_true "schema tag"
    (Json.str (Json.get "schema" json) = "rgleak-metrics/2");
  (* every v1 field keeps its v1 shape *)
  let counters = Json.get "counters" json in
  check_true "counter merged across spans"
    (Json.num (Json.get "work.items" counters) = 7.0);
  let gauges = Json.get "gauges" json in
  check_true "sum gauge exported"
    (Json.num (Json.get "busy_s" gauges) = 1.5);
  check_true "max gauge exported"
    (Json.num (Json.get "queue_max" gauges) = 7.0);
  let spans = Json.arr (Json.get "spans" json) in
  let span_paths = List.map (fun e -> Json.str (Json.get "path" e)) spans in
  check_true "span aggregate paths"
    (List.mem "alpha" span_paths && List.mem "alpha/beta" span_paths);
  (* v2 additions: histogram summaries with sparse buckets, GC totals *)
  let lat = Json.get "lat_s" (Json.get "hists" json) in
  check_true "hist count exported" (Json.num (Json.get "count" lat) = 2.0);
  check_true "hist min exported" (Json.num (Json.get "min" lat) = 0.25);
  check_true "hist max exported" (Json.num (Json.get "max" lat) = 0.5);
  let buckets =
    match Json.get "buckets" lat with
    | Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "buckets is not an object"
  in
  check_true "sparse buckets sum to count"
    (List.fold_left (fun acc (_, c) -> acc + int_of_float (Json.num c)) 0 buckets
    = 2);
  let gc = Json.get "gc" json in
  check_true "gc totals exported" (Json.num (Json.get "minor_words" gc) >= 0.0);
  check_true "metrics round-trips" (Json.parse (Json.to_string json) = json)

(* ---------- collapsed-stack export ---------- *)

let spin ns =
  let t0 = Obs.now_ns () in
  while Int64.sub (Obs.now_ns ()) t0 < ns do
    ()
  done

let test_folded_export () =
  let s =
    with_telemetry @@ fun () ->
    (* spans long enough that self time survives microsecond rounding;
       the root's name exercises frame sanitization *)
    Obs.span "root one" (fun () ->
        spin 400_000L;
        Obs.span "leaf" (fun () -> spin 400_000L));
    Obs.snapshot ()
  in
  let out = Export.folded s in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  let value_of stack =
    let prefix = stack ^ " " in
    let plen = String.length prefix in
    match
      List.find_opt
        (fun l -> String.length l > plen && String.sub l 0 plen = prefix)
        lines
    with
    | None -> Alcotest.failf "no folded line for stack %S in:\n%s" stack out
    | Some l -> (
      match int_of_string_opt (String.sub l plen (String.length l - plen)) with
      | Some v -> v
      | None -> Alcotest.failf "folded value is not an integer: %S" l)
  in
  (* space in the span name is sanitized to '_' *)
  let root = value_of "root_one" and leaf = value_of "root_one;leaf" in
  (* each frame spun for 400 us of its own; self time excludes the
     child's share, so both frames report roughly their own spin *)
  check_true "root self time covers its own spin" (root >= 300);
  check_true "leaf self time covers its own spin" (leaf >= 300)

let test_pool_metrics_recorded () =
  let s =
    with_telemetry @@ fun () ->
    Parallel.with_pool ~jobs:2 (fun pool ->
        ignore
          (Parallel.parallel_for_reduce ~label:"probe" pool ~n:64
             ~init:(fun () -> 0)
             ~body:(fun acc _ -> acc + 1)
             ~combine:( + )));
    Obs.snapshot ()
  in
  let counter name =
    match List.assoc_opt name s.Obs.counters with Some v -> v | None -> 0
  in
  check_true "chunk counter recorded" (counter "pool.chunks" > 0);
  check_true "task counter recorded" (counter "pool.tasks" > 0);
  check_true "worker busy gauges recorded"
    (List.exists
       (fun (name, v) ->
         String.length name > 12
         && String.sub name 0 12 = "pool.worker."
         && v >= 0.0)
       s.Obs.gauges)

(* Histogram site names are a process-global namespace shared by every
   subsystem that records latencies; two subsystems silently writing
   the same site would merge unrelated distributions.  declare_hist
   makes ownership explicit: first owner wins, re-declaring is
   idempotent, a different owner is a programming error. *)
let test_hist_site_registry () =
  Obs.declare_hist ~owner:"test_obs" "test_obs.unique_site_s";
  (* idempotent for the same owner, including after a reset (the
     registry outlives metric state) *)
  Obs.declare_hist ~owner:"test_obs" "test_obs.unique_site_s";
  Obs.reset ();
  Obs.declare_hist ~owner:"test_obs" "test_obs.unique_site_s";
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Obs.declare_hist ~owner:"impostor" "test_obs.unique_site_s" with
  | () -> Alcotest.fail "cross-owner re-declaration must raise"
  | exception Invalid_argument msg ->
    check_true "collision message names both owners"
      (contains msg "test_obs" && contains msg "impostor"));
  (* declared sites record normally *)
  let s =
    with_telemetry @@ fun () ->
    Obs.hist_record "test_obs.unique_site_s" 0.125;
    Obs.snapshot ()
  in
  check_true "declared site records"
    (List.mem_assoc "test_obs.unique_site_s" s.Obs.hists)

let suite =
  ( "obs",
    [
      case "spans nest and record depth" test_spans_nest;
      case "spans close on exceptions" test_spans_close_on_exception;
      case "disabled telemetry records nothing" test_disabled_is_passthrough;
      case "exact counters identical across jobs 1/2/4"
        test_exact_counters_invariant;
      case "mc counters identical across jobs 1/2/4"
        test_mc_counters_invariant;
      case "characterize counters identical across jobs 1/2/4"
        test_characterize_counters_invariant;
      case "histogram buckets cover and clamp values" test_hist_bucketing;
      case "histogram quantiles bound the true ranks" test_hist_quantiles;
      case "histogram merge identical across jobs 1/2/4"
        test_hist_merge_invariant;
      case "track samples beyond the cap are counted dropped"
        test_dropped_tracks_counted;
      case "estimator results bitwise unchanged by tracing"
        test_estimators_bitwise_with_tracing;
      case "chrome trace is valid JSON with nested spans"
        test_chrome_trace_valid;
      case "metrics JSON matches the snapshot" test_metrics_json_valid;
      case "folded stacks carry sanitized frames and self time"
        test_folded_export;
      case "pool records chunk/task counters and worker gauges"
        test_pool_metrics_recorded;
      case "histogram site registry rejects cross-owner collisions"
        test_hist_site_registry;
    ] )
