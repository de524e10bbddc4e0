(** Tail-statistics validation: IS-vs-brute-force equivalence gates,
    lognormal-sum analytic baselines, and the [rgleak-tail/1] document.

    Everything here follows the harness determinism contract: all
    randomness flows through {!Rgleak_num.Rng.stream} keyed by seeds
    derived from the scenario seed, so every field of every record is a
    pure function of (scenario, seed) — bit-identical across runs and
    [--jobs] values. *)

open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core

type scenario = {
  sc_n : int;
  sc_family : Corr_model.wid_family;
  sc_p : float;
  sc_mix_name : string;
  sc_mix : (string * float) list;
}

val default_scenario : scenario
(** 192 gates, spherical(120) correlation, p = 0.5, the ASIC mix. *)

type setup = {
  scenario : scenario;
  seed : int;
  mc : Mc_reference.t;
  placed : Placer.placed;
  chars : Characterize.cell_char array;
  corr : Corr_model.t;
}

val prepare :
  ?chars:Characterize.cell_char array -> seed:int -> scenario -> setup
(** Generates and places the scenario netlist and prepares the MC
    sampler (O(n³) factorization — keep [sc_n] validation-scale). *)

val budget_at : setup -> level:float -> float
(** A deterministic tail budget (nA): the [level] quantile of the
    Chang–Sapatnekar lognormal fit.  No sampling involved. *)

val run :
  ?jobs:int ->
  ?confidence:float ->
  ?shift_delta:float ->
  budget:float ->
  replicas:int ->
  setup ->
  Tail.result
(** The one IS entry point everything downstream shares: calibrates
    the shift at the budget (or takes [shift_delta] verbatim, nm) and
    estimates with the setup's role-2 replica stream — so the CLI, the
    golden baseline and the property tests all exercise the same
    deterministic path. *)

val analytic_exceedance : setup -> budget:float -> float
(** P(leakage > budget) under the Chang–Sapatnekar lognormal fit. *)

type equivalence = {
  eq_budget : float;
  eq_bf_replicas : int;
  eq_is_replicas : int;
  eq_bf_hits : int;
  eq_bf_p : float;
  eq_bf_lo : float;
  eq_bf_hi : float;
  eq_is_p : float;
  eq_is_se : float;
  eq_delta : float;
  eq_ess : float;
  eq_pass : bool;
}

val equivalence :
  ?jobs:int ->
  ?confidence:float ->
  budget:float ->
  bf_replicas:int ->
  is_replicas:int ->
  setup ->
  equivalence
(** The acceptance gate: a brute-force MC run of [bf_replicas] gives a
    Wilson CI for P(leakage > budget); the importance-sampled estimate
    using [is_replicas] must land inside it.  Raises
    [Invalid_argument] unless [bf_replicas >= 10 * is_replicas] — the
    10x replica asymmetry is the point. *)

type analytic = {
  an_budget : float;
  an_is_p : float;
  an_cs_p : float;
  an_log10_ratio : float;
  an_pass : bool;
}

val analytic_tolerance_log10 : float
(** Half an order of magnitude: the Wilkinson two-moment lognormal is
    tail-accurate to tens of percent at the z of 2–3 a calibrated
    budget targets, while a broken weight or shift is off by orders. *)

val analytic :
  ?jobs:int ->
  ?confidence:float ->
  budget:float ->
  replicas:int ->
  setup ->
  analytic
(** Compares the IS exceedance against the Chang–Sapatnekar
    lognormal-sum closed form at the same budget. *)

val schema_id : string
(** ["rgleak-tail/1"]. *)

type doc_meta = {
  doc_n : int;
  doc_corr : string;
  doc_mix : string;
  doc_p : float;
  doc_seed : int;  (** the user's master seed, not the derived stream *)
  doc_confidence : float;
  doc_analytic_p : float option;
}

val to_json : doc_meta -> Tail.result -> Rgleak_obs.Json.t
(** The [rgleak-tail/1] document: scenario identity, the full estimate
    (probability, both CIs, ESS/weight diagnostics, quantiles) and the
    analytic cross-check.  Shared by [rgleak tail] and the golden
    tests. *)
