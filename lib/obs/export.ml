(* Exporters.  All output is derived from a merged snapshot, so the
   formats here never touch the per-domain buffers. *)

let ns_to_s ns = Int64.to_float ns /. 1e9
let ns_to_us ns = Int64.to_float ns /. 1e3
let num_i n = Json.Num (float_of_int n)

let last_segment path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let parent_path path =
  match String.rindex_opt path '/' with
  | None -> None
  | Some i -> Some (String.sub path 0 i)

let path_depth path =
  String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 path

(* Aggregate spans by full path, keeping (count, total_ns, minor_words);
   sorted by path, which interleaves children directly under their
   parents. *)
let aggregate_spans (s : Obs.snapshot) =
  let tbl : (string, int ref * int64 ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (e : Obs.span_event) ->
      match Hashtbl.find_opt tbl e.Obs.path with
      | Some (n, total, mw) ->
        incr n;
        total := Int64.add !total e.Obs.dur_ns;
        mw := !mw +. e.Obs.minor_words
      | None ->
        Hashtbl.add tbl e.Obs.path
          (ref 1, ref e.Obs.dur_ns, ref e.Obs.minor_words))
    s.Obs.spans;
  Hashtbl.fold (fun path (n, total, mw) acc -> (path, !n, !total, !mw) :: acc) tbl []
  |> List.sort compare

(* Self time per path: total minus the total of direct children.
   Pool-task spans attach under their submitter's path but may run
   concurrently on other domains, so a parent's children can sum to
   more than the parent — clamp at zero rather than report negative
   self time. *)
let self_times (s : Obs.snapshot) =
  let aggs = aggregate_spans s in
  let child_total : (string, int64 ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (path, _, total, _) ->
      match parent_path path with
      | None -> ()
      | Some parent -> (
        match Hashtbl.find_opt child_total parent with
        | Some r -> r := Int64.add !r total
        | None -> Hashtbl.add child_total parent (ref total)))
    aggs;
  List.map
    (fun (path, n, total, mw) ->
      let children =
        match Hashtbl.find_opt child_total path with
        | Some r -> !r
        | None -> 0L
      in
      let self = Int64.sub total children in
      let self = if Int64.compare self 0L < 0 then 0L else self in
      (path, n, total, self, mw))
    aggs

(* ---------- human-readable report ---------- *)

let hist_summary (h : Obs.hist) =
  ( h.Obs.h_count,
    Obs.hist_quantile h 0.50,
    Obs.hist_quantile h 0.90,
    Obs.hist_quantile h 0.99,
    h.Obs.h_max )

let report oc (s : Obs.snapshot) =
  let p fmt = Printf.fprintf oc fmt in
  p "== telemetry (%.3f s window) ==\n" (ns_to_s s.Obs.elapsed_ns);
  let selfs = self_times s in
  if selfs <> [] then begin
    p "-- spans %-30s %8s %12s %12s %12s\n" "" "count" "total s" "self s"
      "mean ms";
    List.iter
      (fun (path, n, total, self, _) ->
        let indent = String.make (2 * path_depth path) ' ' in
        p "   %-39s %8d %12.6f %12.6f %12.4f\n"
          (indent ^ last_segment path)
          n (ns_to_s total) (ns_to_s self)
          (ns_to_s total *. 1e3 /. float_of_int n))
      selfs
  end;
  if s.Obs.hists <> [] then begin
    p "-- hists %-27s %8s %10s %10s %10s %10s\n" "" "count" "p50" "p90" "p99"
      "max";
    List.iter
      (fun (name, h) ->
        let n, p50, p90, p99, mx = hist_summary h in
        p "   %-36s %8d %10.3g %10.3g %10.3g %10.3g\n" name n p50 p90 p99 mx)
      s.Obs.hists
  end;
  if s.Obs.counters <> [] then begin
    p "-- counters\n";
    List.iter (fun (name, v) -> p "   %-42s %14d\n" name v) s.Obs.counters
  end;
  if s.Obs.gauges <> [] then begin
    p "-- gauges\n";
    List.iter (fun (name, v) -> p "   %-42s %14.6f\n" name v) s.Obs.gauges
  end;
  if s.Obs.gc_minor_words > 0.0 || s.Obs.gc_major_words > 0.0 then
    p "-- gc: %.0f minor words, %.0f major words (over root spans)\n"
      s.Obs.gc_minor_words s.Obs.gc_major_words;
  if s.Obs.dropped_spans > 0 then
    p "-- dropped spans: %d (per-domain cap)\n" s.Obs.dropped_spans;
  if s.Obs.dropped_tracks > 0 then
    p "-- dropped track samples: %d (per-domain cap)\n" s.Obs.dropped_tracks;
  flush oc

(* ---------- Chrome trace events ---------- *)

let chrome_trace (s : Obs.snapshot) =
  let event ~name ~ph ~tid fields args =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("pid", num_i 0);
         ("tid", num_i tid);
       ]
      @ fields
      @ [ ("args", Json.Obj args) ])
  in
  let metadata name tid label =
    event ~name ~ph:"M" ~tid [] [ ("name", Json.Str label) ]
  in
  let counter name ts value =
    event ~name ~ph:"C" ~tid:0 [ ("ts", Json.Num ts) ] [ ("value", value) ]
  in
  let domains =
    List.sort_uniq compare
      (List.map (fun (e : Obs.span_event) -> e.Obs.domain) s.Obs.spans)
  in
  let span (e : Obs.span_event) =
    event ~name:(last_segment e.Obs.path) ~ph:"X" ~tid:e.Obs.domain
      [
        ("cat", Json.Str "rgleak");
        ("ts", Json.Num (ns_to_us e.Obs.start_ns));
        ("dur", Json.Num (ns_to_us e.Obs.dur_ns));
      ]
      [
        ("path", Json.Str e.Obs.path);
        ("minor_words", Json.Num e.Obs.minor_words);
      ]
  in
  (* Time-stamped counter tracks (cache hits/misses, queue depth...)
     render as timelines, one "C" event per recorded sample; pool
     utilization and work counters follow as final-total events. *)
  let ts_end = ns_to_us s.Obs.elapsed_ns in
  let events =
    (metadata "process_name" 0 "rgleak"
    :: List.map
         (fun d -> metadata "thread_name" d (Printf.sprintf "domain-%d" d))
         domains)
    @ List.map span s.Obs.spans
    @ List.map
        (fun (t : Obs.track_event) ->
          counter t.Obs.t_name (ns_to_us t.Obs.t_ns) (Json.Num t.Obs.t_value))
        s.Obs.tracks
    @ List.map (fun (name, v) -> counter name ts_end (Json.Num v)) s.Obs.gauges
    @ List.map (fun (name, v) -> counter name ts_end (num_i v)) s.Obs.counters
  in
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ])
  ^ "\n"

(* ---------- collapsed stacks (flamegraph.pl / speedscope) ---------- *)

(* Frames may not contain the separator or spaces in the folded
   format; metric names are code-controlled but sanitize anyway. *)
let folded_frame seg =
  String.map (fun c -> match c with ';' -> ':' | ' ' -> '_' | c -> c) seg

let folded (s : Obs.snapshot) =
  let b = Buffer.create 2048 in
  List.iter
    (fun (path, _, _, self, _) ->
      let us = Int64.to_float self /. 1e3 in
      let us = int_of_float (Float.round us) in
      if us > 0 then begin
        let frames = String.split_on_char '/' path in
        Buffer.add_string b
          (String.concat ";" (List.map folded_frame frames));
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int us);
        Buffer.add_char b '\n'
      end)
    (self_times s);
  Buffer.contents b

(* ---------- flat metrics ---------- *)

let snapshot_fields (s : Obs.snapshot) =
  let hist (name, h) =
    ( name,
      Json.Obj
        [
          ("count", num_i h.Obs.h_count);
          ("sum", Json.Num h.Obs.h_sum);
          ("min", Json.Num h.Obs.h_min);
          ("max", Json.Num h.Obs.h_max);
          ("p50", Json.Num (Obs.hist_quantile h 0.50));
          ("p90", Json.Num (Obs.hist_quantile h 0.90));
          ("p99", Json.Num (Obs.hist_quantile h 0.99));
          ( "buckets",
            Json.Obj
              (List.map (fun (i, c) -> (string_of_int i, num_i c)) h.Obs.h_buckets)
          );
        ] )
  in
  [
    ("elapsed_s", Json.Num (ns_to_s s.Obs.elapsed_ns));
    ("dropped_spans", num_i s.Obs.dropped_spans);
    ("dropped_tracks", num_i s.Obs.dropped_tracks);
    ("counters", Json.Obj (List.map (fun (k, v) -> (k, num_i v)) s.Obs.counters));
    ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.Obs.gauges));
    ("hists", Json.Obj (List.map hist s.Obs.hists));
    ( "gc",
      Json.Obj
        [
          ("minor_words", Json.Num s.Obs.gc_minor_words);
          ("major_words", Json.Num s.Obs.gc_major_words);
        ] );
  ]

(* Schema history: rgleak-metrics/1 had elapsed_s / dropped_spans /
   counters / gauges / spans.  Version 2 keeps every v1 field with the
   same shape (v1 consumers that tolerate unknown keys keep working)
   and adds "hists", "gc", "dropped_tracks", and a "self_s" field on
   span aggregates. *)
let metrics_json (s : Obs.snapshot) =
  let span (path, n, total, self, mw) =
    Json.Obj
      [
        ("path", Json.Str path);
        ("count", num_i n);
        ("total_s", Json.Num (ns_to_s total));
        ("self_s", Json.Num (ns_to_s self));
        ("minor_words", Json.Num mw);
      ]
  in
  Json.to_string ~indent:2
    (Json.Obj
       ((("schema", Json.Str "rgleak-metrics/2") :: snapshot_fields s)
       @ [ ("spans", Json.Arr (List.map span (self_times s))) ]))

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_chrome_trace ~path s = write_file ~path (chrome_trace s)
let write_metrics_json ~path s = write_file ~path (metrics_json s)
let write_folded ~path s = write_file ~path (folded s)
