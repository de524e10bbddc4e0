(** End-to-end full-chip leakage estimation (Fig. 1's block diagram).

    Inputs: a characterized library (process + cell library information)
    and the design's high-level characteristics — cell-usage histogram,
    gate count, layout dimensions — supplied directly (early mode) or
    extracted from a placed netlist (late mode).  Output: mean and
    standard deviation of full-chip leakage.

    A {!context} bundles the model state (random gate + correlation
    structure) so repeated estimates share the one-time tabulations. *)

type spec = {
  histogram : Rgleak_circuit.Histogram.t;
  n : int;
  width : float;  (** µm *)
  height : float;  (** µm *)
}
(** The paper's high-level design characteristics. *)

val spec_of_placed : Rgleak_circuit.Placer.placed -> spec
(** Late-mode extraction. *)

type method_selector =
  | Auto  (** linear for small designs, integral for large (§3.2.3) *)
  | Linear
  | Integral_2d
  | Integral_polar

type context

val context :
  ?mode:Random_gate.mode ->
  ?mapping:Rg_correlation.mapping ->
  ?p:float ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  corr:Rgleak_process.Corr_model.t ->
  histogram:Rgleak_circuit.Histogram.t ->
  unit ->
  context
(** Builds the RG model for a cell mix.  [p] is the signal probability;
    omitted, the conservative maximizing setting of §2.1.4 is used. *)

val context_with :
  corr:Rgleak_process.Corr_model.t ->
  rgcorr:Rg_correlation.t ->
  histogram:Rgleak_circuit.Histogram.t ->
  p:float ->
  unit ->
  context
(** A context around an externally built correlation structure (e.g.
    one restored from the content-addressed cache via
    {!Rg_correlation.of_tables}).  [p] and [histogram] must be the
    values the structure was built for. *)

val signal_p : context -> float
val random_gate : context -> Random_gate.t
val correlation : context -> Rg_correlation.t

type result = {
  mean : float;  (** nA *)
  variance : float;
  std : float;
  method_used : string;
  n : int;
  vt_mean_factor : float;
      (** multiplicative V_t correction; already applied to [mean] when
          the context was asked to (see [with_vt] below) *)
}

val resolve_method :
  ?method_:method_selector -> context -> spec -> method_selector
(** The tier {!run} uses for a selector (default [Auto]): [Auto]
    resolves to [Linear] up to 2000 gates, else to [Integral_polar]
    when the correlation range fits the die, else to [Integral_2d];
    every other selector is returned unchanged. *)

val run :
  ?lin_memo:Estimator_linear.memo ->
  ?method_:method_selector ->
  ?with_vt:bool ->
  context ->
  spec ->
  result
(** Estimates mean and σ of full-chip leakage for a design spec.
    [with_vt] (default false) multiplies the mean by the random-dopant
    factor.  The spec's histogram must match the context's (the context
    is built per cell mix).  [lin_memo] is consulted and filled when
    the linear tier runs (see {!Estimator_linear.estimate}); other
    tiers ignore it.  Raises [Invalid_argument] on malformed specs and
    {!Rgleak_num.Guard.Error} on numerical breakdown in the selected
    estimator tier. *)

val run_result :
  ?lin_memo:Estimator_linear.memo ->
  ?method_:method_selector ->
  ?with_vt:bool ->
  context ->
  spec ->
  (result, Rgleak_num.Guard.diagnostic) Stdlib.result
(** Non-raising {!run}: every failure folds into a typed
    {!Rgleak_num.Guard.diagnostic} (invalid input, numeric breakdown
    at a named site, or internal bug).  This is the entry point for
    services and for the CLI's best-effort tier fallback. *)

val early :
  ?mode:Random_gate.mode ->
  ?mapping:Rg_correlation.mapping ->
  ?p:float ->
  ?method_:method_selector ->
  ?with_vt:bool ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  corr:Rgleak_process.Corr_model.t ->
  spec ->
  result
(** One-shot early-mode estimate (builds a fresh context). *)

val early_result :
  ?mode:Random_gate.mode ->
  ?mapping:Rg_correlation.mapping ->
  ?p:float ->
  ?method_:method_selector ->
  ?with_vt:bool ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  corr:Rgleak_process.Corr_model.t ->
  spec ->
  (result, Rgleak_num.Guard.diagnostic) Stdlib.result
(** Non-raising {!early}. *)

val late :
  ?mode:Random_gate.mode ->
  ?mapping:Rg_correlation.mapping ->
  ?p:float ->
  ?method_:method_selector ->
  ?with_vt:bool ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  corr:Rgleak_process.Corr_model.t ->
  Rgleak_circuit.Placer.placed ->
  result
(** One-shot late-mode estimate from a placed netlist. *)

val true_leakage :
  ?mode:Random_gate.mode ->
  ?mapping:Rg_correlation.mapping ->
  ?p:float ->
  ?jobs:int ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  corr:Rgleak_process.Corr_model.t ->
  Rgleak_circuit.Placer.placed ->
  result
(** The O(n²) pairwise reference ("true leakage") of a placed design.
    [jobs] sizes the domain pool for the pair loop (default: the shared
    pool); the result is bit-identical for every job count. *)

val pp_result : Format.formatter -> result -> unit

val finite_size_error_bound : n:int -> float
(** Empirical bound on the relative error of the RG estimate for a
    {e specific} design of [n] gates (the Fig. 6 convergence band):
    individual designs sharing the high-level characteristics scatter
    around the RG prediction with a maximum relative deviation that
    shrinks as ~1/√n.  Calibrated on this repository's Fig. 6 run
    (≈ 2.0/√(n/10⁴): 20 % at 100 gates, ≈ 2 % at 11,236, matching the
    paper's 2.2 %).  Returns the bound as a fraction (0.02 = 2 %). *)
