(* Fleet-telemetry tests: ledger lines round-trip through the report
   parser, concurrent appenders never interleave within a line, the
   aggregator reproduces single-run quantiles exactly from the pooled
   sparse buckets, the diff engine flags injected regressions, and the
   committed mini-ledger golden stays in sync with its report. *)

open Testutil
module Obs = Rgleak_obs.Obs
module Ledger = Rgleak_obs.Ledger
module Report = Rgleak_valid.Report
module Json = Rgleak_obs.Json

(* Build a merged histogram by recording through the real telemetry
   core (same bucketing as production call sites). *)
let hist_of values =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      List.iter (Obs.hist_record "h") values;
      List.assoc "h" (Obs.snapshot ()).Obs.hists)

let entry ?(subcommand = "batch") ?(exit_class = "ok") ?(elapsed = 1.0)
    ?(counters = []) ?(hists = []) () =
  {
    Report.e_subcommand = subcommand;
    e_args_digest = Ledger.args_digest [ subcommand ];
    e_exit_class = exit_class;
    e_elapsed_s = elapsed;
    e_counters = counters;
    e_hists = hists;
    e_gc_minor = 0.0;
    e_gc_major = 0.0;
  }

(* ---------- ledger line <-> report entry round-trip ---------- *)

let test_ledger_round_trip () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  Obs.count "cache.lookups" 5;
  Obs.count "pool.tasks" 12;
  (* values survive the ledger's %.17g number formatting exactly *)
  List.iter (Obs.hist_record "batch.scenario_s") [ 0.25; 0.5; 0.5; 4.0 ];
  let snap = Obs.snapshot () in
  let args = [ "batch"; "m.jsonl"; "--jobs"; "4" ] in
  let line =
    Ledger.line ~subcommand:"batch" ~args ~exit_class:"ok" ~t:1234.5 snap
  in
  (* the line itself is one valid JSON document with the run schema *)
  let doc = Json.parse line in
  check_true "run schema tag"
    (Json.str (Json.get "schema" doc) = Ledger.schema);
  match Report.parse_ledger_string (line ^ "\n\n" ^ line ^ "\n") with
  | [ e; e' ] ->
    check_true "blank lines skipped, both records parsed" (e = e');
    check_true "subcommand" (e.Report.e_subcommand = "batch");
    check_true "args digest"
      (e.Report.e_args_digest = Ledger.args_digest args);
    check_true "exit class" (e.Report.e_exit_class = "ok");
    check_true "counters carried"
      (List.assoc "cache.lookups" e.Report.e_counters = 5
      && List.assoc "pool.tasks" e.Report.e_counters = 12);
    let h = List.assoc "batch.scenario_s" e.Report.e_hists in
    let h0 = List.assoc "batch.scenario_s" snap.Obs.hists in
    check_true "hist count survives" (h.Obs.h_count = h0.Obs.h_count);
    check_true "hist min/max survive"
      (h.Obs.h_min = h0.Obs.h_min && h.Obs.h_max = h0.Obs.h_max);
    check_true "sparse buckets survive exactly"
      (h.Obs.h_buckets = h0.Obs.h_buckets)
  | es -> Alcotest.failf "expected 2 ledger entries, got %d" (List.length es)

(* An infinite sample gives a histogram an infinite sum and max; JSON
   cannot spell them, so both documents print null and the ledger
   reader maps it back to nan, keeping the count and buckets. *)
let test_nonfinite_hist () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  Obs.hist_record "lat_s" 0.5;
  Obs.hist_record "lat_s" infinity;
  let snap = Obs.snapshot () in
  let line = Ledger.line ~subcommand:"serve" ~args:[] ~exit_class:"ok" snap in
  ignore (Json.parse line);
  ignore (Json.parse (Rgleak_obs.Export.metrics_json snap));
  match Report.parse_ledger_string line with
  | [ e ] ->
    let h = List.assoc "lat_s" e.Report.e_hists in
    let h0 = List.assoc "lat_s" snap.Obs.hists in
    check_true "hist count survives" (h.Obs.h_count = h0.Obs.h_count);
    check_true "sparse buckets survive" (h.Obs.h_buckets = h0.Obs.h_buckets);
    check_true "infinite max reads back as nan" (Float.is_nan h.Obs.h_max)
  | es -> Alcotest.failf "expected 1 ledger entry, got %d" (List.length es)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_malformed_ledger_line () =
  Obs.reset ();
  let ok_line =
    Ledger.line ~subcommand:"estimate" ~args:[] ~exit_class:"ok"
      (Obs.snapshot ())
  in
  match Report.parse_ledger_string (ok_line ^ "\nnot json\n") with
  | exception Json.Parse_error msg ->
    check_true "error names the line number" (contains msg "line 2")
  | _ -> Alcotest.fail "malformed line did not raise"

(* ---------- concurrent appenders ---------- *)

let test_concurrent_append () =
  let path = Filename.temp_file "rgleak_ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.reset ();
  let snap = Obs.snapshot () in
  let writers = 4 and per_writer = 25 in
  let write_all w =
    for i = 1 to per_writer do
      let line =
        Ledger.line
          ~subcommand:(Printf.sprintf "w%d" w)
          ~args:[ string_of_int i ] ~exit_class:"ok" snap
      in
      match Ledger.append ~path line with
      | Ok () -> ()
      | Error msg -> failwith msg
    done
  in
  let domains =
    List.init writers (fun w -> Domain.spawn (fun () -> write_all w))
  in
  List.iter Domain.join domains;
  let entries = Report.parse_ledger_file path in
  check_true "every appended line parses"
    (List.length entries = writers * per_writer);
  for w = 0 to writers - 1 do
    let mine =
      List.filter
        (fun e -> e.Report.e_subcommand = Printf.sprintf "w%d" w)
        entries
    in
    check_true "no writer lost a record" (List.length mine = per_writer)
  done

(* ---------- aggregation ---------- *)

let test_aggregate_reproduces_quantiles () =
  let values = List.init 200 (fun i -> 0.001 *. float_of_int (i + 1)) in
  let h = hist_of values in
  (* one run's report must reproduce that run's own quantiles *)
  let agg = Report.aggregate [ entry ~hists:[ ("lat_s", h) ] () ] in
  let h' = List.assoc "lat_s" agg.Report.hists in
  check_true "single-run p50 reproduced"
    (Obs.hist_quantile h' 0.5 = Obs.hist_quantile h 0.5);
  check_true "single-run p99 reproduced"
    (Obs.hist_quantile h' 0.99 = Obs.hist_quantile h 0.99);
  (* two identical runs: counts double, quantiles unchanged *)
  let agg2 =
    Report.aggregate
      [ entry ~hists:[ ("lat_s", h) ] (); entry ~hists:[ ("lat_s", h) ] () ]
  in
  let h2 = List.assoc "lat_s" agg2.Report.hists in
  check_true "bucket counts add exactly"
    (h2.Obs.h_count = 2 * h.Obs.h_count
    && List.for_all2
         (fun (i, c) (i', c') -> i = i' && c = 2 * c')
         h2.Obs.h_buckets h.Obs.h_buckets);
  check_true "pooled quantiles of identical runs unchanged"
    (Obs.hist_quantile h2 0.5 = Obs.hist_quantile h 0.5)

let test_aggregate_counts_and_cache () =
  let es =
    [
      entry ~subcommand:"batch" ~elapsed:2.0
        ~counters:[ ("cache.hits", 9); ("cache.lookups", 10); ("cache.misses", 1) ]
        ();
      entry ~subcommand:"estimate" ~elapsed:1.0 ();
      entry ~subcommand:"estimate" ~exit_class:"invalid-input" ~elapsed:0.5 ();
    ]
  in
  let agg = Report.aggregate es in
  check_true "run count" (agg.Report.runs = 3);
  check_true "wall time summed" (agg.Report.wall_s = 3.5);
  check_true "by subcommand"
    (List.assoc "estimate" agg.Report.by_subcommand = 2
    && List.assoc "batch" agg.Report.by_subcommand = 1);
  check_true "by exit class"
    (List.assoc "ok" agg.Report.by_exit_class = 2
    && List.assoc "invalid-input" agg.Report.by_exit_class = 1);
  (match Report.cache_hit_rate agg with
  | Some r -> check_true "hit rate" (abs_float (r -. 0.9) < 1e-12)
  | None -> Alcotest.fail "cache hit rate missing");
  check_true "no lookups means no hit rate"
    (Report.cache_hit_rate (Report.aggregate [ entry () ]) = None);
  let json = Report.to_json agg in
  check_true "report schema"
    (Json.str (Json.get "schema" json) = "rgleak-report/1");
  check_true "report JSON round-trips"
    (Json.parse (Json.to_string json) = json)

(* ---------- regression diff ---------- *)

let test_diff_flags_regression () =
  let base_h = hist_of (List.init 100 (fun i -> 0.01 +. 0.0001 *. float_of_int i)) in
  (* injected ~2.5x latency regression *)
  let cur_h = hist_of (List.init 100 (fun i -> 0.025 +. 0.00025 *. float_of_int i)) in
  let baseline = Report.aggregate [ entry ~hists:[ ("lat_s", base_h) ] () ] in
  let current = Report.aggregate [ entry ~hists:[ ("lat_s", cur_h) ] () ] in
  let findings = Report.diff ~baseline ~current in
  check_true "2.5x slowdown is a regression"
    (List.exists
       (fun f ->
         f.Report.f_metric = "lat_s" && f.Report.f_level = Report.Regression)
       findings);
  check_true "has_regression reports it" (Report.has_regression findings);
  (* the reverse direction (a speedup) must not regress *)
  let back = Report.diff ~baseline:current ~current:baseline in
  check_true "speedups never regress" (not (Report.has_regression back));
  (* identical windows produce no findings at all *)
  check_true "identical windows are clean"
    (Report.diff ~baseline ~current:baseline = [])

let test_diff_flags_hit_rate_drop () =
  let cached hits misses =
    Report.aggregate
      [
        entry
          ~counters:
            [
              ("cache.hits", hits);
              ("cache.misses", misses);
              ("cache.lookups", hits + misses);
            ]
          ();
      ]
  in
  let findings =
    Report.diff ~baseline:(cached 90 10) ~current:(cached 50 50)
  in
  check_true "0.4 hit-rate drop is a regression"
    (List.exists
       (fun f ->
         f.Report.f_metric = "cache.hit_rate"
         && f.Report.f_level = Report.Regression)
       findings)

(* ---------- committed mini-ledger golden ---------- *)

let mini_ledger = "../../../data/golden/mini_ledger.jsonl"
let mini_report = "../../../data/golden/mini_ledger_report.json"

let test_mini_ledger_golden () =
  if not (Sys.file_exists mini_ledger && Sys.file_exists mini_report) then ()
  else begin
    let entries = Report.parse_ledger_file mini_ledger in
    check_true "fixture has several runs" (List.length entries >= 3);
    let agg = Report.aggregate entries in
    let fresh = Report.to_json agg in
    let committed = Json.parse_file mini_report in
    if fresh <> committed then
      Alcotest.failf
        "committed mini-ledger report drifted; regenerate with\n\
        \  dune exec bin/rgleak.exe -- report %s --json %s\n\
         fresh:\n\
         %s"
        mini_ledger mini_report
        (Json.to_string ~indent:2 fresh)
  end

let suite =
  ( "report",
    [
      case "ledger lines round-trip through the parser"
        test_ledger_round_trip;
      case "non-finite histogram summaries print as null"
        test_nonfinite_hist;
      case "malformed ledger lines name their line number"
        test_malformed_ledger_line;
      case "concurrent appenders never interleave records"
        test_concurrent_append;
      case "aggregation reproduces single-run quantiles"
        test_aggregate_reproduces_quantiles;
      case "aggregation attributes runs, exits and cache hits"
        test_aggregate_counts_and_cache;
      case "diff flags an injected 2.5x latency regression"
        test_diff_flags_regression;
      case "diff flags a cache hit-rate collapse"
        test_diff_flags_hit_rate_drop;
      case "committed mini-ledger report stays in sync"
        test_mini_ledger_golden;
    ] )
