(** The validation sweep runner: paper-table reproduction.

    A {!sweep} declares a list of design points — gate count, die
    aspect ratio, within-die correlation family and range, signal
    probability (the standby input-vector mix), cell mix — plus the MC
    confidence level and per-tier model-error budgets.  {!run} executes
    every point: generates and places a seeded random design, runs the
    exact / linear / integral estimator tiers and a seeded Monte Carlo
    reference on it, computes per-tier relative errors against the
    exact tier (the shape of the paper's Tables 1–2) and
    {!Stat_test.equivalent} verdicts against the MC confidence
    intervals.

    Everything stochastic flows through {!Rgleak_num.Rng.stream} keyed
    by the master seed and the point index, and reports carry no
    wall-clock data, so a report is a pure function of [(sweep, seed)]
    — bit-identical across runs and [--jobs] values. *)

type point = {
  label : string;
  n : int;
  aspect : float;  (** die width / height *)
  family : Rgleak_process.Corr_model.wid_family;
  p : float;  (** signal probability: the standby input-vector mix *)
  mix_name : string;
  mix : (string * float) list;
  replicas : int;  (** MC reference replicas *)
}

type budget = { mean : float; std : float }
(** Relative model-error budgets (fractions of the MC center). *)

type budgets = { exact : budget; linear : budget; integral : budget }

type sweep = {
  sweep_name : string;
  confidence : float;
  budgets : budgets;
  points : point list;
}

val quick_sweep : sweep
(** Two small points; seconds on one core — the tier-1 [dune runtest]
    subset. *)

val default_sweep : sweep
(** The full paper-table sweep: design size, correlation range, aspect
    ratio, and sleep-vector dimensions. *)

val sweep_named : string -> sweep
(** ["quick"] or ["default"]; raises {!Rgleak_num.Guard.Error}
    ([Invalid_input]) otherwise. *)

val family_spec : Rgleak_process.Corr_model.wid_family -> string
(** The CLI-style spec string, e.g. ["spherical:120"]. *)

(** {2 Reports} *)

type tier_report = {
  tier : string;
  status : string;  (** ["ok"] or ["error:<class>"] *)
  mean : float option;
  std : float option;
  mean_rel_err : float option;  (** vs the exact tier *)
  std_rel_err : float option;
  mean_verdict : Stat_test.verdict option;  (** vs the MC interval *)
  std_verdict : Stat_test.verdict option;
  tier_pass : bool;
}

type mc_report = {
  mc_status : string;
  mc_mean : float option;
  mc_std : float option;
  mc_mean_ci : Stat_test.interval option;
  mc_std_ci : Stat_test.interval option;
}

type point_report = {
  point : point;
  width : float;
  height : float;
  mc : mc_report;
  tiers : tier_report list;
  point_pass : bool;
}

type report = {
  schema : string;
  seed : int;
  report_sweep : string;
  confidence : float;
  point_reports : point_report list;
  pass : bool;
}

val schema_id : string
(** ["rgleak-validate/1"]. *)

val run_point :
  ?jobs:int ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  confidence:float ->
  budgets:budgets ->
  seed:int ->
  index:int ->
  point ->
  point_report

val run :
  ?jobs:int ->
  ?chars:Rgleak_cells.Characterize.cell_char array ->
  seed:int ->
  sweep ->
  report
(** Raises {!Rgleak_num.Guard.Error} ([Invalid_input]) on a sweep with
    no points — an empty sweep would otherwise vacuously pass. *)

val to_json : report -> Rgleak_obs.Json.t
(** The [rgleak-validate/1] document; deterministic member order, no
    timestamps. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable per-point tables. *)
