open Rgleak_cells
open Rgleak_circuit

type spec = {
  histogram : Histogram.t;
  n : int;
  width : float;
  height : float;
}

let spec_of_placed placed =
  let histogram, n, width, height = Placer.extract_characteristics placed in
  { histogram; n; width; height }

type method_selector = Auto | Linear | Integral_2d | Integral_polar

type context = {
  corr : Rgleak_process.Corr_model.t;
  rg : Random_gate.t;
  rgcorr : Rg_correlation.t;
  p : float;
  histogram : Histogram.t;
}

let context ?(mode = Random_gate.Analytic) ?(mapping = Rg_correlation.Exact)
    ?p ~chars ~corr ~histogram () =
  let p =
    match p with
    | Some p -> p
    | None ->
      Signal_prob.maximizing_p
        ~mode:(match mode with Random_gate.Analytic -> Signal_prob.Analytic
                             | Random_gate.Reference -> Signal_prob.Reference)
        chars ~weights:(Histogram.to_array histogram)
  in
  let rg = Random_gate.create ~mode ~chars ~histogram ~p () in
  let rgcorr = Rg_correlation.create ~mapping ~chars ~rg ~p () in
  { corr; rg; rgcorr; p; histogram }

(* For callers that obtained the correlation structure elsewhere (the
   batch engine rebuilds it from cached tables): same invariants as
   [context], with the tabulation step skipped. *)
let context_with ~corr ~rgcorr ~histogram ~p () =
  { corr; rg = Rg_correlation.rg rgcorr; rgcorr; p; histogram }

let signal_p ctx = ctx.p
let random_gate ctx = ctx.rg
let correlation ctx = ctx.rgcorr

type result = {
  mean : float;
  variance : float;
  std : float;
  method_used : string;
  n : int;
  vt_mean_factor : float;
}

let finish ~with_vt ~method_used ~n (mean, variance) =
  let vt_mean_factor = Vt_correction.mean_factor () in
  let mean = if with_vt then mean *. vt_mean_factor else mean in
  { mean; variance; std = sqrt (Float.max 0.0 variance); method_used; n;
    vt_mean_factor }

let resolve_method ?(method_ = Auto) ctx (spec : spec) =
  match method_ with
  | Auto ->
    if spec.n <= 2000 then Linear
    else if
      Estimator_integral.polar_applicable ~corr:ctx.corr ~width:spec.width
        ~height:spec.height
    then Integral_polar
    else Integral_2d
  | m -> m

let run ?lin_memo ?method_ ?(with_vt = false) ctx (spec : spec) =
  if spec.n <= 0 then invalid_arg "Estimate.run: need a positive gate count";
  (* Integer gate counts round the histogram, so allow small drift; a
     gross mismatch means the caller built the context for another mix. *)
  if Histogram.distance_l1 ctx.histogram spec.histogram > 0.1 then
    invalid_arg "Estimate.run: spec histogram differs from the context's";
  match resolve_method ?method_ ctx spec with
  | Auto -> assert false
  | Linear ->
    let layout = Layout.of_dims ~n:spec.n ~width:spec.width ~height:spec.height in
    let r =
      Estimator_linear.estimate ?memo:lin_memo ~corr:ctx.corr
        ~rgcorr:ctx.rgcorr ~layout ()
    in
    finish ~with_vt ~method_used:"linear (Eq. 17)" ~n:spec.n
      (r.Estimator_linear.mean, r.Estimator_linear.variance)
  | Integral_2d ->
    let r =
      Estimator_integral.rect_2d ~corr:ctx.corr ~rgcorr:ctx.rgcorr ~n:spec.n
        ~width:spec.width ~height:spec.height ()
    in
    finish ~with_vt ~method_used:"2-D integral (Eq. 20)" ~n:spec.n
      (r.Estimator_integral.mean, r.Estimator_integral.variance)
  | Integral_polar ->
    let r =
      Estimator_integral.polar ~corr:ctx.corr ~rgcorr:ctx.rgcorr ~n:spec.n
        ~width:spec.width ~height:spec.height ()
    in
    finish ~with_vt ~method_used:"polar integral (Eqs. 25-26)" ~n:spec.n
      (r.Estimator_integral.mean, r.Estimator_integral.variance)

let run_result ?lin_memo ?method_ ?with_vt ctx spec =
  Rgleak_num.Guard.protect (fun () -> run ?lin_memo ?method_ ?with_vt ctx spec)

let early ?mode ?mapping ?p ?method_ ?with_vt ~chars ~corr (spec : spec) =
  let ctx = context ?mode ?mapping ?p ~chars ~corr ~histogram:spec.histogram () in
  run ?method_ ?with_vt ctx spec

let late ?mode ?mapping ?p ?method_ ?with_vt ~chars ~corr placed =
  early ?mode ?mapping ?p ?method_ ?with_vt ~chars ~corr (spec_of_placed placed)

let true_leakage ?mode ?mapping ?p ?jobs ~chars ~corr placed =
  let spec = spec_of_placed placed in
  let ctx = context ?mode ?mapping ?p ~chars ~corr ~histogram:spec.histogram () in
  let r = Estimator_exact.estimate ?jobs ~corr ~rgcorr:ctx.rgcorr placed in
  {
    mean = r.Estimator_exact.mean;
    variance = r.Estimator_exact.variance;
    std = r.Estimator_exact.std;
    method_used = "exact pairwise (O(n^2))";
    n = spec.n;
    vt_mean_factor = Vt_correction.mean_factor ();
  }

let early_result ?mode ?mapping ?p ?method_ ?with_vt ~chars ~corr spec =
  Rgleak_num.Guard.protect (fun () ->
      early ?mode ?mapping ?p ?method_ ?with_vt ~chars ~corr spec)

(* Calibrated on the Fig. 6 convergence run: 2.0% at n = 10^4, 1/sqrt(n). *)
let finite_size_error_bound ~n =
  if n <= 0 then invalid_arg "Estimate.finite_size_error_bound: positive n";
  0.02 /. sqrt (float_of_int n /. 10_000.0)

let pp_result fmt r =
  Format.fprintf fmt "n=%d mean=%.4g nA std=%.4g nA (%.2f%%) via %s" r.n r.mean
    r.std
    (if r.mean <> 0.0 then 100.0 *. r.std /. r.mean else 0.0)
    r.method_used
