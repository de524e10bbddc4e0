(* The flat pair kernel's contract is threefold: the C stub (scalar or
   SIMD) is bit-identical to the pure-OCaml lane-contract mirror, the
   binned covariance tables reproduce the direct per-pair evaluation,
   and the whole exact estimator built on top is allocation-free in
   its inner loop and bit-stable across runs and job counts. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil

let bits = Int64.bits_of_float

let check_bits name expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %.17g and %.17g differ bitwise" name expected actual

(* --- synthetic buffers (kernel-level tests) ----------------------- *)

(* Random staged geometry, built exactly the way the estimator stages a
   placed design: cells counting-sorted by type, packed tables indexed
   through a dense nu x nu base map.  The tables cover the diagonal of a
   100 x 100 die; cells spread over [0, span)^2 with span > 100 reach
   past it, so the k > kmax clamp fires.  [cell_ty] fixes the types. *)
let make_buffers ?(span = 100.0) ?cell_ty ~seed ~n ~nu ~distance_points () =
  let rng = Rng.create ~seed () in
  let dmax = (sqrt 2.0 *. 100.0) +. 1e-9 in
  let dstep = dmax /. float_of_int (distance_points - 1) in
  let cell_ty =
    match cell_ty with
    | Some t -> t
    | None -> Array.init n (fun _ -> Rng.int rng nu)
  in
  let px = Array.init n (fun _ -> Rng.float rng span) in
  let py = Array.init n (fun _ -> Rng.float rng span) in
  let seg = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nu + 1) in
  let next = Array.make nu 0 in
  Array.iter (fun t -> next.(t) <- next.(t) + 1) cell_ty;
  let start = ref 0 in
  Bigarray.Array1.set seg 0 0;
  for t = 0 to nu - 1 do
    let c = next.(t) in
    next.(t) <- !start;
    start := !start + c;
    Bigarray.Array1.set seg (t + 1) !start
  done;
  let xs = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let ys = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let ty = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    let t = cell_ty.(i) in
    let pos = next.(t) in
    next.(t) <- pos + 1;
    Bigarray.Array1.set xs pos px.(i);
    Bigarray.Array1.set ys pos py.(i);
    Bigarray.Array1.set ty pos t
  done;
  let tri = Parallel.tri_size nu in
  let cov =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (tri * distance_points)
  in
  for i = 0 to (tri * distance_points) - 1 do
    Bigarray.Array1.set cov i (Rng.float rng 2.0 -. 1.0)
  done;
  let base = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nu * nu) in
  for idx = 0 to (nu * nu) - 1 do
    let ti = idx / nu and tj = idx mod nu in
    let i = Stdlib.min ti tj and j = Stdlib.max ti tj in
    Bigarray.Array1.set base idx
      (Parallel.tri_index ~n:nu ~i ~j * distance_points)
  done;
  {
    Pair_kernel.xs;
    ys;
    ty;
    seg;
    base;
    cov;
    nu;
    inv_dstep = 1.0 /. dstep;
    kmax = distance_points - 2;
  }

(* Cells past the table's distance range, in 8 types of 16 + r cells for
   r = 0..7, so whole segments leave every remainder length. *)
let clamped_buffers ~seed =
  let cell_ty = Array.concat (List.init 8 (fun t -> Array.make (16 + t) t)) in
  make_buffers ~span:160.0 ~cell_ty ~seed ~n:(Array.length cell_ty) ~nu:8
    ~distance_points:32 ()

let all_isas =
  List.filter Pair_kernel.available Pair_kernel.[ Scalar; Avx2; Avx512; Auto ]

let test_stub_matches_ocaml_mirror =
  qcheck ~count:60
    "C scalar kernel is bitwise the OCaml lane mirror, as is every ISA"
    QCheck2.Gen.(
      quad (int_range 2 120) (int_range 1 5) (int_range 4 32) (int_range 0 1000))
    (fun (n, nu, distance_points, seed) ->
      (* odd seeds spread the cells past the table: the clamp fires *)
      let span = if seed land 1 = 1 then 160.0 else 100.0 in
      let b = make_buffers ~span ~seed ~n ~nu ~distance_points () in
      let lo = seed mod n and rows = 1 + (seed mod 17) in
      let hi = Stdlib.min n (lo + rows) in
      let whole = Pair_kernel.sum_ocaml b ~lo:0 ~hi:n in
      let part = Pair_kernel.sum_ocaml b ~lo ~hi in
      let c = clamped_buffers ~seed in
      let nc = Bigarray.Array1.dim c.Pair_kernel.xs in
      let clamped = Pair_kernel.sum_ocaml c ~lo:0 ~hi:nc in
      List.for_all
        (fun isa ->
          bits (Pair_kernel.sum ~isa b ~lo:0 ~hi:n) = bits whole
          && bits (Pair_kernel.sum ~isa b ~lo ~hi) = bits part
          && bits (Pair_kernel.sum ~isa c ~lo:0 ~hi:nc) = bits clamped)
        all_isas)

let test_simd_matches_scalar () =
  (* Auto plus every ISA the host supports must reproduce the scalar
     bits exactly (fixed 8-lane summation order, no FMA contraction). *)
  let b = make_buffers ~seed:7 ~n:1500 ~nu:5 ~distance_points:64 () in
  let reference = Pair_kernel.sum ~isa:Scalar b ~lo:0 ~hi:1500 in
  List.iter
    (fun isa ->
      if Pair_kernel.available isa then
        check_bits
          (Printf.sprintf "%s vs scalar" (Pair_kernel.isa_name isa))
          reference
          (Pair_kernel.sum ~isa b ~lo:0 ~hi:1500))
    [ Pair_kernel.Auto; Pair_kernel.Avx2; Pair_kernel.Avx512 ];
  (* Tiled subranges sum to the full range bitwise only when the tile
     boundaries match; here just confirm each subrange is ISA-stable. *)
  List.iter
    (fun (lo, hi) ->
      check_bits
        (Printf.sprintf "auto vs scalar rows [%d, %d)" lo hi)
        (Pair_kernel.sum ~isa:Scalar b ~lo ~hi)
        (Pair_kernel.sum ~isa:Auto b ~lo ~hi))
    [ (0, 1); (17, 63); (256, 512); (1499, 1500) ]

let test_validate_rejects () =
  let b = make_buffers ~seed:3 ~n:50 ~nu:3 ~distance_points:8 () in
  let expect_invalid name f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "bad row range" (fun () ->
      Pair_kernel.sum b ~lo:0 ~hi:51);
  expect_invalid "negative lo" (fun () -> Pair_kernel.sum b ~lo:(-1) ~hi:10);
  expect_invalid "seg not ending at n" (fun () ->
      let seg = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 4 in
      Bigarray.Array1.fill seg 0;
      Pair_kernel.sum { b with Pair_kernel.seg } ~lo:0 ~hi:50);
  expect_invalid "kmax beyond table" (fun () ->
      Pair_kernel.sum
        { b with Pair_kernel.kmax = Bigarray.Array1.dim b.Pair_kernel.cov }
        ~lo:0 ~hi:50)

(* --- exact scaled accumulation (the delta estimator's kernels) ----- *)

(* Per-term oracle: the scaled pair term of the summing kernel's
   arithmetic, mapped through [f], folded through Xsum.add one term at a
   time. *)
let acc_oracle ?(f = Fun.id) (b : Pair_kernel.buffers) ~scale ~rows ~partner
    ~srow =
  let open Bigarray.Array1 in
  let acc = Xsum.create () in
  List.iter
    (fun a ->
      let xa = get b.xs a and ya = get b.ys a in
      for p = 0 to dim b.xs - 1 do
        if partner a p then begin
          let dx = get b.xs p -. xa and dy = get b.ys p -. ya in
          let pos = sqrt ((dx *. dx) +. (dy *. dy)) *. b.inv_dstep in
          let k = Stdlib.min b.kmax (Stdlib.max 0 (int_of_float pos)) in
          let tb = get b.base ((get b.ty a * b.nu) + get b.ty p) in
          let t0 = get b.cov (tb + k) and t1 = get b.cov (tb + k + 1) in
          let w = t0 +. ((pos -. float_of_int k) *. (t1 -. t0)) in
          Xsum.add acc (f ((srow a *. get scale p) *. w))
        end
      done)
    rows;
  Xsum.value acc

let random_scale ~seed n =
  let rng = Rng.create ~seed () in
  let s = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    (* Vt-flavor-like spread: three decades of scale *)
    let decade = 10.0 ** float_of_int (Rng.int rng 3 - 1) in
    Bigarray.Array1.set s i ((0.5 +. Rng.float rng 1.0) *. decade)
  done;
  s

(* gamma_k = k u / (1 - k u), u = 2^-53: the relative error bound of any
   k-addition float sum (Higham, Accuracy and Stability, 2nd ed., 4.2) *)
let gamma k =
  let ku = float_of_int k *. epsilon_float /. 2.0 in
  ku /. (1.0 -. ku)

let test_acc_cross_isa () =
  (* Exactness makes the ISA unobservable: acc_band and acc_row give the
     per-term oracle's bits on every ISA the host runs, whatever the
     band split or block boundaries.  With unit scales the lane sum and
     the exact sum add the same N terms, so they differ by at most
     gamma_(N-1) sum |w| plus the exact sum's one rounding, u sum |w|:
     in all, gamma_N sum |w|. *)
  List.iter
    (fun (b, bands, rows) ->
      let n = Bigarray.Array1.dim b.Pair_kernel.xs in
      let scale = random_scale ~seed:22 n in
      let ones = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      Bigarray.Array1.fill ones 1.0;
      let upper ?f scale =
        acc_oracle ?f b ~scale ~rows:(List.init n Fun.id)
          ~partner:(fun a p -> p > a)
          ~srow:(Bigarray.Array1.get scale)
      in
      let band_want = upper scale in
      let abs_sum = upper ~f:Float.abs ones in
      let row_want =
        List.map
          (fun r ->
            let srow = -.Bigarray.Array1.get scale r *. 3.0 in
            ( r,
              srow,
              acc_oracle b ~scale ~rows:[ r ] ~partner:(fun a p -> p <> a)
                ~srow:(fun _ -> srow) ))
          rows
      in
      List.iter
        (fun isa ->
          let name = Printf.sprintf "%s n=%d" (Pair_kernel.isa_name isa) n in
          let full = Xsum.create () in
          Pair_kernel.acc_band ~isa b ~scale ~acc:full ~lo:0 ~hi:n;
          check_bits (name ^ " acc_band vs per-term oracle") band_want
            (Xsum.value full);
          let split = Xsum.create () in
          List.iter
            (fun (lo, hi) ->
              let part = Xsum.create () in
              Pair_kernel.acc_band ~isa b ~scale ~acc:part ~lo ~hi;
              Xsum.merge ~into:split part)
            bands;
          check_bits (name ^ " acc_band bands vs one pass") band_want
            (Xsum.value split);
          List.iter
            (fun (row, srow, want) ->
              let acc = Xsum.create () in
              Pair_kernel.acc_row ~isa b ~scale ~acc ~row ~srow;
              check_bits
                (Printf.sprintf "%s acc_row %d vs per-term oracle" name row)
                want (Xsum.value acc))
            row_want;
          let exact = Xsum.create () in
          Pair_kernel.acc_band ~isa b ~scale:ones ~acc:exact ~lo:0 ~hi:n;
          let lane = Pair_kernel.sum ~isa b ~lo:0 ~hi:n in
          let gap = Float.abs (lane -. Xsum.value exact) in
          let bound = gamma (n * (n - 1) / 2) *. abs_sum in
          if not (gap <= bound) then
            Alcotest.failf "%s: lane sum %.17g and exact sum %.17g differ by \
                            %g, over the bound %g"
              name lane (Xsum.value exact) gap bound)
        all_isas)
    [
      ( make_buffers ~seed:21 ~n:1500 ~nu:5 ~distance_points:64 (),
        [ (0, 7); (7, 700); (700, 701); (701, 1500) ],
        [ 0; 1; 333; 1024; 1499 ] );
      ( clamped_buffers ~seed:23,
        [ (0, 9); (9, 100); (100, 156) ],
        [ 0; 16; 17; 77; 155 ] );
    ]

(* --- binned covariance tables (estimator staging) ----------------- *)

let param = Process_param.default_channel_length
let corr = lazy (Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param)

let hist =
  lazy
    (Histogram.of_weights
       [ ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("NOR2_X1", 8.0); ("DFF_X1", 9.0) ])

let fixture =
  lazy
    (let chars = Characterize.default_library () in
     let corr = Lazy.force corr in
     let ctx =
       Estimate.context ~p:0.5 ~chars ~corr ~histogram:(Lazy.force hist) ()
     in
     let rng = Rng.create ~seed:77 () in
     let placed =
       Generator.random_placed ~histogram:(Lazy.force hist) ~n:600 ~rng ()
     in
     (corr, Estimate.correlation ctx, placed))

let used_of placed =
  Array.of_list
    (List.sort_uniq compare
       (Array.to_list
          (Array.map
             (fun inst -> inst.Netlist.cell_index)
             placed.Placer.netlist.Netlist.instances)))

let test_binned_tables_match_direct () =
  let corr, rgcorr, placed = Lazy.force fixture in
  let used = used_of placed in
  let nu = Array.length used in
  let distance_points = 512 in
  let dstep = 120.0 /. float_of_int (distance_points - 1) in
  let cov =
    Rg_correlation.binned_pair_tables rgcorr ~used ~distance_points ~dstep
      ~rho_of_d:(fun d -> Corr_model.total corr d)
  in
  (* Grid nodes are exact: the table holds the direct evaluation. *)
  for ti = 0 to nu - 1 do
    for tj = ti to nu - 1 do
      let base = Parallel.tri_index ~n:nu ~i:ti ~j:tj * distance_points in
      List.iter
        (fun k ->
          let d = float_of_int k *. dstep in
          check_bits
            (Printf.sprintf "node (%d,%d) k=%d" ti tj k)
            (Rg_correlation.cell_pair_covariance rgcorr ~ci:used.(ti)
               ~cj:used.(tj)
               ~rho_l:(Corr_model.total corr d))
            (Bigarray.Array1.get cov (base + k)))
        [ 0; 1; distance_points / 2; distance_points - 1 ]
    done
  done;
  (* Off-node distances: linear interpolation tracks the direct value
     to bin tolerance.  The scale is the d = 0 covariance (the largest
     entry); at 512 bins over a smooth spherical model the interp
     error is far below 1e-3 of that scale. *)
  let scale =
    Float.abs
      (Rg_correlation.cell_pair_covariance rgcorr ~ci:used.(0) ~cj:used.(0)
         ~rho_l:(Corr_model.total corr 0.0))
  in
  let rng = Rng.create ~seed:5 () in
  for _ = 1 to 200 do
    let d = Rng.float rng 120.0 in
    let ti = Rng.int rng nu and tj = Rng.int rng nu in
    let i = Stdlib.min ti tj and j = Stdlib.max ti tj in
    let base = Parallel.tri_index ~n:nu ~i ~j * distance_points in
    let pos = d /. dstep in
    let k = int_of_float pos in
    let k = Stdlib.min k (distance_points - 2) in
    let t0 = Bigarray.Array1.get cov (base + k) in
    let t1 = Bigarray.Array1.get cov (base + k + 1) in
    let interp = t0 +. ((pos -. float_of_int k) *. (t1 -. t0)) in
    let direct =
      Rg_correlation.cell_pair_covariance rgcorr ~ci:used.(i) ~cj:used.(j)
        ~rho_l:(Corr_model.total corr d)
    in
    check_close ~tol:(1e-3 *. scale)
      (Printf.sprintf "interp d=%.3f types (%d,%d)" d i j)
      direct interp
  done

(* --- whole-estimator determinism ---------------------------------- *)

let test_estimate_cold_warm_and_jobs () =
  let corr, rgcorr, placed = Lazy.force fixture in
  let cold = Estimator_exact.estimate ~jobs:1 ~corr ~rgcorr placed in
  let warm = Estimator_exact.estimate ~jobs:1 ~corr ~rgcorr placed in
  check_bits "cold vs warm mean" cold.Estimator_exact.mean
    warm.Estimator_exact.mean;
  check_bits "cold vs warm variance" cold.Estimator_exact.variance
    warm.Estimator_exact.variance;
  List.iter
    (fun jobs ->
      let r = Estimator_exact.estimate ~jobs ~corr ~rgcorr placed in
      check_bits
        (Printf.sprintf "jobs=1 vs jobs=%d variance" jobs)
        cold.Estimator_exact.variance r.Estimator_exact.variance;
      check_bits
        (Printf.sprintf "jobs=1 vs jobs=%d std" jobs)
        cold.Estimator_exact.std r.Estimator_exact.std)
    [ 2; 4 ]

let test_estimate_matches_reference () =
  (* The historical row-at-a-time oracle: same staging, same tables,
     same clamp; differs only by summation order, so the means are
     bitwise equal and the variances agree to reassociation level. *)
  let corr, rgcorr, placed = Lazy.force fixture in
  let flat = Estimator_exact.estimate ~jobs:1 ~corr ~rgcorr placed in
  let oracle = Estimator_exact.estimate_reference ~jobs:1 ~corr ~rgcorr placed in
  check_bits "mean vs reference" oracle.Estimator_exact.mean
    flat.Estimator_exact.mean;
  check_rel ~tol:1e-12 "variance vs reference" oracle.Estimator_exact.variance
    flat.Estimator_exact.variance;
  check_rel ~tol:1e-12 "std vs reference" oracle.Estimator_exact.std
    flat.Estimator_exact.std

(* --- allocation discipline ---------------------------------------- *)

let minor_words_of f =
  ignore (f ());
  (* warm: lazy tables, pool setup *)
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

let test_kernel_allocation_free () =
  let b = make_buffers ~seed:11 ~n:2000 ~nu:5 ~distance_points:64 () in
  let dw = minor_words_of (fun () -> Pair_kernel.sum b ~lo:0 ~hi:2000) in
  if dw > 256.0 then
    Alcotest.failf "kernel call allocated %.0f minor words (want ~0)" dw

let test_estimate_allocation_budget () =
  (* Whole estimate at n = 2000 on one domain with telemetry off: only
     the O(n + nu^2) staging may allocate; amortized over the n(n-1)/2
     pairs that is well under 0.05 minor words per pair (the bench-gate
     budget).  Any boxed value reintroduced into the pair loop would
     blow this up by orders of magnitude. *)
  let corr, rgcorr, _ = Lazy.force fixture in
  let rng = Rng.create ~seed:99 () in
  let placed =
    Generator.random_placed ~histogram:(Lazy.force hist) ~n:2000 ~rng ()
  in
  let enabled_before = Rgleak_obs.Obs.enabled () in
  Rgleak_obs.Obs.set_enabled false;
  let dw =
    minor_words_of (fun () ->
        Estimator_exact.estimate ~jobs:1 ~corr ~rgcorr placed)
  in
  Rgleak_obs.Obs.set_enabled enabled_before;
  let pairs = float_of_int (2000 * 1999 / 2) in
  let per_pair = dw /. pairs in
  if per_pair > 0.05 then
    Alcotest.failf "estimate allocated %.4f minor words/pair (budget 0.05)"
      per_pair

let test_mc_allocation_budget () =
  (* Streaming MC on one domain: per-sample allocation is bounded by
     the per-draw transients (~16 words per gate), far below the
     64 words/gate bench-gate budget; the DLS scratch amortizes the
     per-replica arrays away. *)
  let corr, _, _ = Lazy.force fixture in
  let chars = Characterize.default_library () in
  let rng = Rng.create ~seed:41 () in
  let placed =
    Generator.random_placed ~histogram:(Lazy.force hist) ~n:600 ~rng ()
  in
  let mc = Mc_reference.prepare ~chars ~corr ~p:0.5 placed in
  let count = 50 in
  let dw =
    minor_words_of (fun () ->
        Mc_reference.sample_many_stream ~jobs:1 mc ~seed:910 ~count)
  in
  let per_sample = dw /. float_of_int count in
  if per_sample > 64.0 *. 600.0 then
    Alcotest.failf "MC allocated %.0f minor words/sample (budget %d)"
      per_sample
      (64 * 600)

(* --- allocation-free staging of the samplers ---------------------- *)

let test_variation_sample_into_bitwise () =
  let corr = Lazy.force corr in
  let rng = Rng.create ~seed:123 () in
  let locations =
    Array.init 40 (fun _ ->
        { Variation.x = Rng.float rng 100.0; y = Rng.float rng 100.0 })
  in
  let sampler = Variation.prepare corr locations in
  let n = Variation.locations_count sampler in
  let r1 = Rng.create ~seed:321 () and r2 = Rng.create ~seed:321 () in
  let z = Array.make n 0.0 in
  let wid = Array.make n 0.0 in
  let out = Array.make n 0.0 in
  for round = 1 to 3 do
    let a = Variation.sample sampler r1 in
    Variation.sample_into sampler r2 ~z ~wid ~out;
    Array.iteri
      (fun i v ->
        check_bits (Printf.sprintf "round %d location %d" round i) v out.(i))
      a
  done;
  (* Both paths consumed the identical RNG stream. *)
  check_bits "rng streams still aligned" (Rng.uniform r1) (Rng.uniform r2)

let suite =
  ( "pair_kernel",
    [
      test_stub_matches_ocaml_mirror;
      case "SIMD paths match scalar bitwise" test_simd_matches_scalar;
      case "buffer validation rejects bad shapes" test_validate_rejects;
      case "acc_band/acc_row: every ISA gives the per-term bits"
        test_acc_cross_isa;
      case "binned tables match direct covariance" test_binned_tables_match_direct;
      case "estimate: cold/warm and jobs 1/2/4 bitwise" test_estimate_cold_warm_and_jobs;
      case "estimate matches row-at-a-time oracle" test_estimate_matches_reference;
      case "kernel call allocates nothing" test_kernel_allocation_free;
      case "estimate stays under the per-pair budget" test_estimate_allocation_budget;
      case "MC stays under the per-sample budget" test_mc_allocation_budget;
      case "Variation.sample_into is bitwise sample" test_variation_sample_into_bitwise;
    ] )
