(* Fleet telemetry aggregation: parse rgleak-run/1 ledger lines (and
   rgleak-metrics/1-2 files), merge them into one service-level view,
   and render tables / JSON / a regression diff.

   Quantiles are recomputed from the sparse bucket counts carried in
   every record — never averaged from the per-run summaries — so the
   aggregate p50/p99 over N runs is exactly the quantile of the pooled
   sample set (at bucket resolution), and a report over a single-run
   ledger reproduces the quantiles printed in that run's
   --metrics-json. *)

module Obs = Rgleak_obs.Obs
module Json = Rgleak_obs.Json

type entry = {
  e_subcommand : string;
  e_args_digest : string;
  e_exit_class : string;
  e_elapsed_s : float;
  e_counters : (string * int) list;
  e_hists : (string * Obs.hist) list;
  e_gc_minor : float;
  e_gc_major : float;
}

let fail fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt

let obj_fields = function
  | Json.Obj fields -> fields
  | _ -> fail "expected an object"

let opt_obj name j = match Json.mem name j with Some o -> obj_fields o | None -> []
(* Non-finite numbers (a histogram that recorded infinity has an
   infinite sum and max) are written as null. *)
let opt_num name ~default j =
  match Json.mem name j with
  | Some Json.Null -> Float.nan
  | Some v -> Json.num v
  | None -> default
let opt_str name ~default j =
  match Json.mem name j with Some v -> Json.str v | None -> default

let hist_of_json j =
  let buckets =
    opt_obj "buckets" j
    |> List.map (fun (k, v) ->
           match int_of_string_opt k with
           | Some i -> (i, int_of_float (Json.num v))
           | None -> fail "non-integer bucket index %S" k)
    |> List.sort compare
  in
  {
    Obs.h_count = int_of_float (opt_num "count" ~default:0.0 j);
    h_sum = opt_num "sum" ~default:0.0 j;
    h_min = opt_num "min" ~default:infinity j;
    h_max = opt_num "max" ~default:neg_infinity j;
    h_buckets = buckets;
  }

let hists_of_json j =
  List.map (fun (name, h) -> (name, hist_of_json h)) (opt_obj "hists" j)

let counters_of_json j =
  List.map
    (fun (name, v) -> (name, int_of_float (Json.num v)))
    (opt_obj "counters" j)

let entry_of_run j =
  (match Json.mem "schema" j with
  | Some (Json.Str "rgleak-run/1") -> ()
  | Some (Json.Str s) -> fail "unsupported ledger schema %S" s
  | _ -> fail "ledger record has no schema tag");
  let gc = Json.mem "gc" j in
  {
    e_subcommand = opt_str "subcommand" ~default:"?" j;
    e_args_digest = opt_str "args_digest" ~default:"" j;
    e_exit_class = opt_str "exit_class" ~default:"?" j;
    e_elapsed_s = opt_num "elapsed_s" ~default:0.0 j;
    e_counters = counters_of_json j;
    e_hists = hists_of_json j;
    e_gc_minor =
      (match gc with Some g -> opt_num "minor_words" ~default:0.0 g | None -> 0.0);
    e_gc_major =
      (match gc with Some g -> opt_num "major_words" ~default:0.0 g | None -> 0.0);
  }

(* A --metrics-json document as a pseudo ledger entry.  v1 documents
   (no hists/gc) degrade to counters only — the v1 compatibility
   path. *)
let entry_of_metrics j =
  (match Json.mem "schema" j with
  | Some (Json.Str ("rgleak-metrics/1" | "rgleak-metrics/2")) -> ()
  | Some (Json.Str s) -> fail "unsupported metrics schema %S" s
  | _ -> fail "metrics document has no schema tag");
  let gc = Json.mem "gc" j in
  {
    e_subcommand = "(metrics)";
    e_args_digest = "";
    e_exit_class = "ok";
    e_elapsed_s = opt_num "elapsed_s" ~default:0.0 j;
    e_counters = counters_of_json j;
    e_hists = hists_of_json j;
    e_gc_minor =
      (match gc with Some g -> opt_num "minor_words" ~default:0.0 g | None -> 0.0);
    e_gc_major =
      (match gc with Some g -> opt_num "major_words" ~default:0.0 g | None -> 0.0);
  }

let parse_ledger_string text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         if String.trim line = "" then []
         else
           try [ entry_of_run (Json.parse line) ]
           with Json.Parse_error m ->
             fail "ledger line %d: %s" (i + 1) m)
       lines)

let parse_ledger_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_ledger_string text

let parse_metrics_file path = entry_of_metrics (Json.parse_file path)

(* ---------- aggregation ---------- *)

type agg = {
  runs : int;
  wall_s : float;
  by_subcommand : (string * int) list;
  by_exit_class : (string * int) list;
  counters : (string * int) list;
  hists : (string * Obs.hist) list;
  gc_minor : float;
  gc_major : float;
}

let bump tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl name (ref n)

let merge_hist a b =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (i, c) -> bump tbl i c) a.Obs.h_buckets;
  List.iter (fun (i, c) -> bump tbl i c) b.Obs.h_buckets;
  {
    Obs.h_count = a.Obs.h_count + b.Obs.h_count;
    h_sum = a.Obs.h_sum +. b.Obs.h_sum;
    h_min = Float.min a.Obs.h_min b.Obs.h_min;
    h_max = Float.max a.Obs.h_max b.Obs.h_max;
    h_buckets =
      Hashtbl.fold (fun i r acc -> (i, !r) :: acc) tbl [] |> List.sort compare;
  }

let sorted_assoc tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare

let aggregate entries =
  let subcommands = Hashtbl.create 8 in
  let classes = Hashtbl.create 8 in
  let counters = Hashtbl.create 32 in
  let hists : (string, Obs.hist ref) Hashtbl.t = Hashtbl.create 16 in
  let wall = ref 0.0 in
  let gc_minor = ref 0.0 in
  let gc_major = ref 0.0 in
  List.iter
    (fun e ->
      bump subcommands e.e_subcommand 1;
      bump classes e.e_exit_class 1;
      wall := !wall +. e.e_elapsed_s;
      gc_minor := !gc_minor +. e.e_gc_minor;
      gc_major := !gc_major +. e.e_gc_major;
      List.iter (fun (name, v) -> bump counters name v) e.e_counters;
      List.iter
        (fun (name, h) ->
          match Hashtbl.find_opt hists name with
          | Some r -> r := merge_hist !r h
          | None -> Hashtbl.add hists name (ref h))
        e.e_hists)
    entries;
  {
    runs = List.length entries;
    wall_s = !wall;
    by_subcommand = sorted_assoc subcommands;
    by_exit_class = sorted_assoc classes;
    counters = sorted_assoc counters;
    hists =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) hists []
      |> List.sort compare;
    gc_minor = !gc_minor;
    gc_major = !gc_major;
  }

let counter a name =
  match List.assoc_opt name a.counters with Some v -> v | None -> 0

(* hit rate over all cache lookups; None when the window has none. *)
let cache_hit_rate a =
  let hits = counter a "cache.hits" and misses = counter a "cache.misses" in
  if hits + misses = 0 then None
  else Some (float_of_int hits /. float_of_int (hits + misses))

let hist_rate a h =
  if a.wall_s > 0.0 then float_of_int h.Obs.h_count /. a.wall_s else 0.0

(* ---------- rendering ---------- *)

let pp oc a =
  let p fmt = Printf.fprintf oc fmt in
  p "== rgleak report: %d run%s, %.3f s total wall ==\n" a.runs
    (if a.runs = 1 then "" else "s")
    a.wall_s;
  let counts label items =
    if items <> [] then begin
      p "-- %s:" label;
      List.iter (fun (name, n) -> p " %s=%d" name n) items;
      p "\n"
    end
  in
  counts "subcommands" a.by_subcommand;
  counts "exit classes" a.by_exit_class;
  (match cache_hit_rate a with
  | Some rate ->
    p "-- cache: %d hits / %d misses (%.1f%% hit rate)\n"
      (counter a "cache.hits")
      (counter a "cache.misses")
      (100.0 *. rate)
  | None -> ());
  if a.hists <> [] then begin
    p "-- latency %-25s %8s %9s %10s %10s %10s %10s\n" "" "count" "rate/s"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (name, h) ->
        p "   %-35s %8d %9.2f %10.3g %10.3g %10.3g %10.3g\n" name
          h.Obs.h_count (hist_rate a h)
          (Obs.hist_quantile h 0.50)
          (Obs.hist_quantile h 0.90)
          (Obs.hist_quantile h 0.99)
          h.Obs.h_max)
      a.hists
  end;
  if a.counters <> [] then begin
    p "-- counters\n";
    List.iter (fun (name, v) -> p "   %-42s %14d\n" name v) a.counters
  end;
  if a.gc_minor > 0.0 || a.gc_major > 0.0 then
    p "-- gc: %.3g minor words, %.3g major words\n" a.gc_minor a.gc_major;
  flush oc

let to_json a =
  let num_i n = Json.Num (float_of_int n) in
  let counts items = Json.Obj (List.map (fun (k, n) -> (k, num_i n)) items) in
  let hist_json (name, h) =
    ( name,
      Json.Obj
        [
          ("count", num_i h.Obs.h_count);
          ("rate_per_s", Json.Num (hist_rate a h));
          ("p50", Json.Num (Obs.hist_quantile h 0.50));
          ("p90", Json.Num (Obs.hist_quantile h 0.90));
          ("p99", Json.Num (Obs.hist_quantile h 0.99));
          ("max", Json.Num h.Obs.h_max);
          ("sum", Json.Num h.Obs.h_sum);
        ] )
  in
  Json.Obj
    ([
       ("schema", Json.Str "rgleak-report/1");
       ("runs", num_i a.runs);
       ("wall_s", Json.Num a.wall_s);
       ("by_subcommand", counts a.by_subcommand);
       ("by_exit_class", counts a.by_exit_class);
     ]
    @ (match cache_hit_rate a with
      | Some rate ->
        [
          ( "cache",
            Json.Obj
              [
                ("hits", num_i (counter a "cache.hits"));
                ("misses", num_i (counter a "cache.misses"));
                ("hit_rate", Json.Num rate);
              ] );
        ]
      | None -> [])
    @ [
        ("latency", Json.Obj (List.map hist_json a.hists));
        ("counters", counts a.counters);
        ( "gc",
          Json.Obj
            [
              ("minor_words", Json.Num a.gc_minor);
              ("major_words", Json.Num a.gc_major);
            ] );
      ])

(* ---------- diff / regression attribution ---------- *)

type level = Warn | Regression

type finding = {
  f_metric : string;
  f_what : string;
  f_base : float;
  f_current : float;
  f_level : level;
}

let warn_ratio = 1.5
let fail_ratio = 2.0

let diff ~baseline ~current =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (name, h) ->
      match List.assoc_opt name baseline.hists with
      | Some hb when hb.Obs.h_count > 0 && h.Obs.h_count > 0 ->
        List.iter
          (fun (what, q) ->
            let b = Obs.hist_quantile hb q and c = Obs.hist_quantile h q in
            if b > 0.0 && c > 0.0 then begin
              let ratio = c /. b in
              if ratio >= fail_ratio then
                add
                  {
                    f_metric = name;
                    f_what = what;
                    f_base = b;
                    f_current = c;
                    f_level = Regression;
                  }
              else if ratio >= warn_ratio then
                add
                  {
                    f_metric = name;
                    f_what = what;
                    f_base = b;
                    f_current = c;
                    f_level = Warn;
                  }
            end)
          [ ("p50", 0.50); ("p99", 0.99) ]
      | _ -> ())
    current.hists;
  (match (cache_hit_rate baseline, cache_hit_rate current) with
  | Some b, Some c when b -. c >= 0.05 ->
    add
      {
        f_metric = "cache.hit_rate";
        f_what = "rate";
        f_base = b;
        f_current = c;
        f_level = (if b -. c >= 0.20 then Regression else Warn);
      }
  | _ -> ());
  List.rev !findings

let has_regression findings =
  List.exists (fun f -> f.f_level = Regression) findings

let pp_diff oc findings =
  let p fmt = Printf.fprintf oc fmt in
  if findings = [] then p "diff: no latency or cache regressions\n"
  else
    List.iter
      (fun f ->
        p "%s: %s %s %.3g -> %.3g (%.2fx)\n"
          (match f.f_level with Regression -> "REGRESSION" | Warn -> "warn")
          f.f_metric f.f_what f.f_base f.f_current
          (f.f_current /. f.f_base))
      findings;
  flush oc
