(** Performance- and allocation-regression gate over
    [rgleak-bench-estimators/4] timing documents.

    Compares a freshly measured bench document against the committed
    baseline.  Three kinds of findings:

    - {b Hard failures} — the schema string differs, or an
      (estimator, n) entry present in the baseline is missing from the
      current run, or an entry slowed down beyond its fail threshold.
      The default [fail_ratio] is 3x, but tiers whose wall time is a
      deterministic compute loop are tightened per estimator (the
      exact and delta-swap tiers fail at 2x).  These indicate a broken harness or a
      gross regression and should fail CI even on noisy shared
      runners.
    - {b Allocation failures} — a budgeted [alloc] metric of the
      current run (e.g. the exact tier's [minor_words_per_pair])
      exceeds its absolute words-per-unit budget, or is missing from
      the entry.  Budgets are absolute, not relative to the baseline:
      allocation is deterministic, so there is no runner noise to
      absorb.
    - {b Warnings} — an entry slowed down by more than [warn_ratio]
      (default 1.5x) but within its fail threshold.  On shared CI
      runners wall-clock noise of this size is routine, so warnings
      are reported but do not gate.

    Speed-ups and new entries are never findings.  Comparison uses the
    [seconds] field (the multi-job wall time); the deterministic work
    counters are not compared — they are covered by the golden and
    unit gates. *)

type finding = {
  estimator : string;
  n : int;
  base_seconds : float;
  cur_seconds : float;
  ratio : float;  (** current / baseline *)
  level : [ `Warn | `Fail ];
}

type alloc_finding = {
  estimator : string;
  n : int;
  metric : string;  (** e.g. ["minor_words_per_pair"] *)
  value : float;  (** nan when the metric is missing from the entry *)
  budget : float;  (** absolute ceiling, minor-heap words per unit *)
}

type verdict = {
  schema_ok : bool;
  missing : (string * int) list;  (** baseline entries absent from current *)
  compared : int;  (** entries present in both documents *)
  findings : finding list;  (** slowdowns beyond [warn_ratio], worst first *)
  alloc_findings : alloc_finding list;
      (** current-run allocation metrics over budget or missing *)
  best_ratio : float;
      (** smallest current/baseline ratio over the compared entries
          (1.0 when nothing compared); < 1 means something got faster *)
  pass : bool;  (** no hard failure (warnings allowed) *)
}

val compare :
  ?warn_ratio:float ->
  ?fail_ratio:float ->
  baseline:Rgleak_obs.Json.t ->
  current:Rgleak_obs.Json.t ->
  unit ->
  verdict
(** Raises {!Rgleak_obs.Json.Parse_error} when either document is not a bench
    timing document (missing schema/entries or malformed entries). *)

val should_adopt : verdict -> bool
(** Ratchet policy: true when the current run should replace the
    committed baseline — it passed with no findings at all (not even
    warnings) and at least one entry ran >= 10% faster than the
    baseline.  Smaller improvements are treated as wall-clock noise so
    the baseline cannot drift downward run over run. *)

val pp : Format.formatter -> verdict -> unit
(** One line per finding plus a summary verdict line. *)

val overhead_schema : string
(** ["rgleak-overhead/3"]. *)

val check_overhead : Rgleak_obs.Json.t -> (unit, string) result
(** Validates a [BENCH_overhead.json] document (written by
    [bench --run overhead]): current schema, histogram-probe fields
    present, recorded pass flag true, and the total disabled-cost
    fraction strictly under its budget.  Raises {!Rgleak_obs.Json.Parse_error}
    on missing or mis-typed fields. *)
