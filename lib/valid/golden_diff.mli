(** Golden-artifact regression: structural + tolerance diffs of
    [rgleak-validate/1], [rgleak-tail/1] and [rgleak-optimize/1]
    reports against committed baselines.

    Drift classes:
    - {!Identical} — the fresh report is bit-for-bit the baseline (the
      expected steady state, since reports are pure functions of their
      arguments);
    - {!Benign} — numeric fields moved, but every movement stays within
      the baseline's own MC confidence interval (the fields a per-schema
      table names: validate MC and tier means and stds, the tail
      [p_exceed]) or within a 1e-9 relative epsilon (every other
      number);
    - {!Breaking} — a string, bool, null, key-presence or array-length
      change, or numeric drift beyond the tolerance: the code now
      computes something different. *)

type severity = Identical | Benign | Breaking

type finding = {
  path : string;  (** location, e.g. ["points/3/tiers/1/std"] *)
  kind : severity;
  detail : string;
}

type diff = { severity : severity; findings : finding list }

val severity_name : severity -> string
val worst : severity -> severity -> severity

val compare :
  baseline:Rgleak_obs.Json.t -> current:Rgleak_obs.Json.t -> diff
(** Walks the union of the two documents' keys, with the exceptions of
    the baseline's ["schema"].  A changed schema, or a changed validate
    point [label], is one Breaking finding that ends the diff of its
    enclosing object.  Raises {!Rgleak_obs.Json.Parse_error} if the
    baseline has no ["schema"] string. *)

val pp : Format.formatter -> diff -> unit
