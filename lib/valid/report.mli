(** Fleet telemetry aggregation for [rgleak report].

    Parses ["rgleak-run/1"] ledger lines (see {!Rgleak_obs.Ledger})
    and ["rgleak-metrics/1"|"2"] documents into a common entry form,
    merges any number of them into one service-level window, and
    renders it as tables, as ["rgleak-report/1"] JSON, or as a
    regression diff between two windows.

    Histogram quantiles are recomputed from the pooled sparse bucket
    counts (exact integer merge — the same arithmetic as
    {!Rgleak_obs.Obs.snapshot}), never averaged from per-run
    summaries; a report over a single run therefore reproduces that
    run's own p50/p90/p99. *)

type entry = {
  e_subcommand : string;
  e_args_digest : string;
  e_exit_class : string;
  e_elapsed_s : float;
  e_counters : (string * int) list;
  e_hists : (string * Rgleak_obs.Obs.hist) list;
  e_gc_minor : float;
  e_gc_major : float;
}

val parse_ledger_string : string -> entry list
(** Parses JSONL ledger text; blank lines are skipped, malformed lines
    raise {!Rgleak_obs.Json.Parse_error} naming the line number. *)

val parse_ledger_file : string -> entry list

val parse_metrics_file : string -> entry
(** Parses one [--metrics-json] document as a pseudo ledger entry
    (subcommand ["(metrics)"], exit class ["ok"]).  v1 documents
    contribute counters and elapsed time only; v2 documents carry
    histograms and GC totals too. *)

(** {2 Aggregation} *)

type agg = {
  runs : int;
  wall_s : float;  (** sum of per-run elapsed time *)
  by_subcommand : (string * int) list;
  by_exit_class : (string * int) list;  (** diagnostic/fault attribution *)
  counters : (string * int) list;  (** summed across runs *)
  hists : (string * Rgleak_obs.Obs.hist) list;  (** exact bucket merge *)
  gc_minor : float;
  gc_major : float;
}

val aggregate : entry list -> agg

val cache_hit_rate : agg -> float option
(** [hits / (hits + misses)] over the window; [None] when the window
    performed no cache lookups. *)

val hist_rate : agg -> Rgleak_obs.Obs.hist -> float
(** Samples per wall second over the window (QPS for per-request
    histograms). *)

val pp : out_channel -> agg -> unit
(** Human-readable service tables: run/exit-class counts, cache hit
    rate, per-histogram count/rate/p50/p90/p99/max, counters, GC. *)

val to_json : agg -> Rgleak_obs.Json.t
(** ["rgleak-report/1"] document. *)

(** {2 Regression diff} *)

type level = Warn | Regression

type finding = {
  f_metric : string;
  f_what : string;  (** "p50", "p99" or "rate" *)
  f_base : float;
  f_current : float;
  f_level : level;
}

val diff : baseline:agg -> current:agg -> finding list
(** Compares every histogram present in both windows: p50/p99 ratios
    [>= 2x] are regressions, [>= 1.5x] warnings; a cache hit-rate drop
    [>= 0.05] warns, [>= 0.20] is a regression. *)

val has_regression : finding list -> bool

val pp_diff : out_channel -> finding list -> unit
