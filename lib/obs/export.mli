(** Exporters for {!Obs.snapshot}: a human-readable span tree with
    self-time and histogram tables, a Chrome trace-event file (load in
    [chrome://tracing] or {:https://ui.perfetto.dev}), a collapsed-stack
    file for flamegraph.pl / speedscope, and a flat metrics JSON. *)

val self_times : Obs.snapshot -> (string * int * int64 * int64 * float) list
(** Per-path span aggregates
    [(path, count, total_ns, self_ns, minor_words)], sorted by path.
    Self time is the total minus the totals of direct children,
    clamped at zero (pool-task children may overlap their parent on
    other domains). *)

val report : out_channel -> Obs.snapshot -> unit
(** Aggregated span tree (call count, total, self and mean time per
    path), histogram quantile table, counter and gauge tables, GC
    totals, and dropped-record warnings.  The CLI prints this on
    stderr under [--trace]. *)

val chrome_trace : Obs.snapshot -> string
(** Chrome trace-event JSON: one ["X"] (complete) event per span with
    the recording domain as [tid] and its minor-words delta in [args],
    thread-name metadata per domain, one ["C"] (counter) event per
    recorded {!Obs.track} sample (timeline tracks for cache hits and
    queue depth), plus final-total ["C"] events for gauges and work
    counters. *)

val write_chrome_trace : path:string -> Obs.snapshot -> unit

val folded : Obs.snapshot -> string
(** Collapsed-stack ("folded") text: one line per span path with
    nonzero self time, ["frame;frame;frame <self-us>"], directly
    consumable by [flamegraph.pl] or speedscope.  Frame separators in
    segment names are sanitized. *)

val write_folded : path:string -> Obs.snapshot -> unit

val metrics_json : Obs.snapshot -> string
(** Flat metrics document, schema ["rgleak-metrics/2"]: elapsed time,
    merged counters and gauges, histogram summaries
    (count/sum/min/max, p50/p90/p99, sparse buckets), GC minor/major
    totals, and per-path span aggregates (count/total/self seconds,
    minor words).  Every ["rgleak-metrics/1"] field is retained with
    its v1 shape, so v1 consumers that ignore unknown keys keep
    working. *)

val snapshot_fields : Obs.snapshot -> (string * Json.t) list
(** The snapshot members shared by the metrics document and the
    ledger line: [elapsed_s], [dropped_spans], [dropped_tracks],
    [counters], [gauges], [hists] (per histogram
    [count,sum,min,max,p50,p90,p99] and its sparse [buckets]) and
    [gc]. *)

val write_metrics_json : path:string -> Obs.snapshot -> unit
