(* The delta-equivalence battery: incremental swap updates must be
   bit-identical to cold full re-estimates of the same flavor
   assignment, on every tier, along any swap path. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil
module Obs = Rgleak_obs.Obs

let param = Process_param.default_channel_length

let chars =
  lazy
    (let rng = Rng.create ~seed:88 () in
     Array.map
       (fun cell ->
         Characterize.characterize ~l_points:49 ~mc_samples:1000 ~param
           ~rng:(Rng.split rng) cell)
       Library.cells)

let corr = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param

let hist_small =
  lazy
    (Histogram.of_weights
       [ ("NAND2_X1", 3.0); ("INV_X1", 2.0); ("NOR2_X1", 1.0); ("DFF_X1", 1.0) ])

let rgcorr =
  lazy
    (let rg =
       Random_gate.create ~chars:(Lazy.force chars)
         ~histogram:(Lazy.force hist_small) ~p:0.5 ()
     in
     Rg_correlation.create ~chars:(Lazy.force chars) ~rg ~p:0.5 ())

let make_placed ~n ~seed =
  let rng = Rng.create ~seed () in
  Generator.random_placed ~histogram:(Lazy.force hist_small) ~n ~rng ()

let make_state ?jobs ?flavors ~n ~seed () =
  Delta.create ?jobs ?flavors ~distance_points:128 ~corr
    ~rgcorr:(Lazy.force rgcorr) (make_placed ~n ~seed)

let bits = Int64.bits_of_float

let check_tier_bits name (a : Delta.tier) (b : Delta.tier) =
  if
    bits a.Delta.mean <> bits b.Delta.mean
    || bits a.Delta.variance <> bits b.Delta.variance
    || bits a.Delta.std <> bits b.Delta.std
  then
    Alcotest.failf "%s: tiers differ bitwise (mean %.17g vs %.17g, var %.17g vs %.17g)"
      name a.Delta.mean b.Delta.mean a.Delta.variance b.Delta.variance

let check_result_bits name (a : Delta.result) (b : Delta.result) =
  check_tier_bits (name ^ " [exact]") a.Delta.exact b.Delta.exact;
  check_tier_bits (name ^ " [linear]") a.Delta.linear b.Delta.linear;
  check_tier_bits (name ^ " [integral]") a.Delta.integral b.Delta.integral

let all_flavors = Vt_correction.all_flavors

(* ---- exact accumulator foundation ---- *)

let test_xsum_order_independence () =
  let rng = Rng.create ~seed:4242 () in
  for _trial = 1 to 20 do
    let terms =
      Array.init 200 (fun _ ->
          (* wide dynamic range plus signs: the regime where float
             summation order matters most *)
          let mag = (Rng.float rng 1.0 -. 0.5) *. 2.0 in
          mag *. (10.0 ** (Rng.float rng 24.0 -. 12.0)))
    in
    let forward = Xsum.create () in
    Array.iter (Xsum.add forward) terms;
    let backward = Xsum.create () in
    for i = Array.length terms - 1 downto 0 do
      Xsum.add backward terms.(i)
    done;
    let halves = Xsum.create () in
    let lo = Xsum.create () and hi = Xsum.create () in
    Array.iteri
      (fun i t -> Xsum.add (if i mod 2 = 0 then lo else hi) t)
      terms;
    Xsum.merge ~into:halves hi;
    Xsum.merge ~into:halves lo;
    if bits (Xsum.value forward) <> bits (Xsum.value backward) then
      Alcotest.fail "xsum: forward and backward sums differ";
    if bits (Xsum.value forward) <> bits (Xsum.value halves) then
      Alcotest.fail "xsum: merged partial sums differ"
  done

let test_xsum_exact_cancellation () =
  let a = Xsum.create () in
  Xsum.add a 1e300;
  Xsum.add a 1e-300;
  Xsum.add a (-1e300);
  check_true "exact retraction leaves the tiny term"
    (bits (Xsum.value a) = bits 1e-300);
  Xsum.add a (-1e-300);
  check_true "full cancellation is exactly zero" (Xsum.value a = 0.0)

let test_xsum_poison () =
  let a = Xsum.create () in
  Xsum.add a 1.0;
  Xsum.add a Float.nan;
  check_true "non-finite terms poison the accumulator"
    (Float.is_nan (Xsum.value a))

(* Correct rounding of the exact sum: the old most-significant-first
   limb sum rounded twice and returned 1 for 1 + 2^-53 + 2^-80. *)
let test_xsum_value_rounds_once () =
  let sum terms =
    let a = Xsum.create () in
    List.iter (Xsum.add a) terms;
    Xsum.value a
  in
  let expect name want terms =
    let got = sum terms in
    if bits got <> bits want then
      Alcotest.failf "%s: got %h, want %h" name got want
  in
  expect "just above the tie rounds up" 0x1.0000000000001p+0
    [ 1.0; 0x1p-53; 0x1p-80 ];
  expect "mirrored below zero" (-0x1.0000000000001p+0)
    [ -1.0; -0x1p-53; -0x1p-80 ];
  expect "just below the tie rounds down" 1.0 [ 1.0; 0x1p-53; -0x1p-80 ];
  expect "tie to even (down)" 1.0 [ 1.0; 0x1p-53 ];
  expect "tie to even (up)" 0x1.0000000000002p+0
    [ 1.0; 0x1p-52; 0x1p-53 ];
  expect "far sticky bit" 0x1.0000000000001p+0 [ 1.0; 0x1p-53; 0x1p-1074 ];
  expect "subnormal sums are exact" 0x1p-1073 [ 0x1p-1074; 0x1p-1074 ];
  expect "half an ulp above max_float overflows" Float.infinity
    [ Float.max_float; 0x1p970 ];
  expect "just under that stays finite" Float.max_float
    [ Float.max_float; 0x1p970; -0x1p-1074 ];
  expect "exact zero" 0.0 [ 0x1p-1074; -0x1p-1074 ]

(* The block reduction (error-free extraction in SIMD) against folding
   Xsum.add over the same terms: equal Xsum.value bits on every ISA the
   host runs, across block lengths around the 8-lane vector and the
   1024-term block and over the awkward corners of the double range.
   Values are compared, never raw limbs: carry-save limbs are not
   canonical. *)
let block_lengths = [ 0; 1; 7; 8; 1023; 1024; 1025 ]

let block_isas =
  List.filter Pair_kernel.available
    Pair_kernel.[ Auto; Scalar; Avx2; Avx512 ]

let signed rng x = if Rng.int rng 2 = 0 then x else -.x

let mantissa rng = 0.5 +. Rng.float rng 0.5

let block_generators =
  [
    ( "mixed signs, 24 decades",
      fun rng _ ->
        signed rng (mantissa rng *. (10.0 ** (Rng.float rng 24.0 -. 12.0))) );
    ( "exponents over the whole range",
      fun rng _ -> signed rng (ldexp (mantissa rng) (Rng.int rng 2098 - 1074))
    );
    ( "subnormals and the smallest normals",
      fun rng _ ->
        let m = float_of_int (1 + Rng.int rng (1 lsl 53)) in
        signed rng (ldexp m (-1074 - Rng.int rng 2)) );
    ( "signed zeros among tiny values",
      fun rng i ->
        if i mod 3 = 0 then signed rng 0.0
        else signed rng (ldexp (mantissa rng) (Rng.int rng 200 - 1000)) );
    ("near max_float", fun rng _ -> signed rng (Float.max_float *. mantissa rng));
    ( "one huge term among unit terms",
      fun rng i -> if i = 3 then 0x1.fp1010 else signed rng (mantissa rng) );
    ( "unit terms over a deep-underflow tail",
      fun rng i ->
        if i mod 2 = 0 then signed rng (mantissa rng)
        else signed rng (ldexp (mantissa rng) (-1000)) );
  ]

let check_block_matches_fold name terms =
  let fold = Xsum.create () in
  Array.iter (Xsum.add fold) terms;
  let want = Xsum.value fold in
  let block = Xsum.create () in
  Xsum.add_block block terms;
  let same got =
    bits got = bits want || (Float.is_nan got && Float.is_nan want)
  in
  if not (same (Xsum.value block)) then
    Alcotest.failf "%s: add_block gives %h, folded add %h" name
      (Xsum.value block) want;
  List.iter
    (fun isa ->
      let acc = Xsum.create () in
      Pair_kernel.add_block ~isa acc terms;
      if not (same (Xsum.value acc)) then
        Alcotest.failf "%s [%s]: add_block gives %h, folded add %h" name
          (Pair_kernel.isa_name isa) (Xsum.value acc) want)
    block_isas

let test_block_matches_fold () =
  let rng = Rng.create ~seed:1414 () in
  List.iter
    (fun (gname, gen) ->
      List.iter
        (fun len ->
          for trial = 1 to 3 do
            check_block_matches_fold
              (Printf.sprintf "%s, length %d, trial %d" gname len trial)
              (Array.init len (gen rng))
          done)
        block_lengths)
    block_generators

let test_block_exact_cancellation () =
  let rng = Rng.create ~seed:1515 () in
  List.iter
    (fun len ->
      let half =
        Array.init (len / 2) (fun _ ->
            signed rng (ldexp (mantissa rng) (Rng.int rng 2000 - 1000)))
      in
      let terms = Array.append half (Array.map (fun x -> -.x) half) in
      (* Fisher-Yates, so cancelling partners straddle block borders *)
      for i = Array.length terms - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = terms.(i) in
        terms.(i) <- terms.(j);
        terms.(j) <- t
      done;
      check_block_matches_fold
        (Printf.sprintf "cancellation, length %d" len)
        terms;
      let acc = Xsum.create () in
      Xsum.add_block acc terms;
      check_true "cancelling block sums to +0"
        (bits (Xsum.value acc) = bits 0.0))
    [ 0; 8; 1024; 2050 ]

let test_block_poison () =
  List.iter
    (fun bad ->
      List.iter
        (fun len ->
          let terms = Array.init len (fun i -> float_of_int (i + 1)) in
          terms.(len / 2) <- bad;
          check_block_matches_fold
            (Printf.sprintf "poison %h, length %d" bad len) terms;
          let acc = Xsum.create () in
          Xsum.add_block acc terms;
          check_true "poisoned block reads NaN" (Float.is_nan (Xsum.value acc));
          (* the poison survives a later clean block *)
          Xsum.add_block acc [| 1.0; 2.0 |];
          check_true "poison is sticky" (Float.is_nan (Xsum.value acc)))
        [ 1; 7; 8; 1023; 1024; 1025 ])
    [ Float.nan; Float.infinity; Float.neg_infinity; -.Float.nan ]

(* ---- cold-vs-incremental equivalence ---- *)

(* The acceptance battery: a 500-swap randomized sequence (self-swaps
   included by construction) where EVERY intermediate state must match
   a cold full rebuild bit for bit on all three tiers. *)
let test_500_swap_sequence () =
  let n = 60 in
  let seed = 7 in
  let st0 = make_state ~n ~seed () in
  let rng = Rng.create ~seed:1234 () in
  let flavors = Array.make n Vt_correction.Svt in
  let st = ref st0 in
  for k = 1 to 500 do
    let cell = Rng.int rng n in
    let flavor = all_flavors.(Rng.int rng 3) in
    let st', r = Delta.apply_swap !st ~cell ~flavor in
    st := st';
    flavors.(cell) <- flavor;
    (* Cold rebuild of the same assignment, sequentially. *)
    let cold = make_state ~jobs:1 ~flavors:(Array.copy flavors) ~n ~seed () in
    check_result_bits
      (Printf.sprintf "swap %d (cell %d)" k cell)
      (Delta.result cold) r
  done;
  (* The incremental state's own report is stable (pure function). *)
  check_result_bits "re-reported result" (Delta.result !st) (Delta.result !st)

let test_swap_then_revert () =
  let n = 80 in
  let st0 = make_state ~n ~seed:11 () in
  let r0 = Delta.result st0 in
  let st1, _ = Delta.apply_swap st0 ~cell:17 ~flavor:Vt_correction.Hvt in
  let st2, _ = Delta.apply_swap st1 ~cell:42 ~flavor:Vt_correction.Lvt in
  let st3, _ = Delta.apply_swap st2 ~cell:42 ~flavor:Vt_correction.Svt in
  let st4, r4 = Delta.apply_swap st3 ~cell:17 ~flavor:Vt_correction.Svt in
  check_result_bits "revert to the initial assignment" r0 r4;
  (* the original snapshot is untouched (immutability) *)
  check_result_bits "input state unmodified" r0 (Delta.result st0);
  ignore st4

let test_self_swap_neutral () =
  let st0 = make_state ~n:50 ~seed:3 () in
  let st1, _ = Delta.apply_swap st0 ~cell:10 ~flavor:Vt_correction.Lvt in
  let r1 = Delta.result st1 in
  let st2, r2 = Delta.apply_swap st1 ~cell:10 ~flavor:Vt_correction.Lvt in
  check_result_bits "self-swap is bit-neutral" r1 r2;
  check_true "self-swap keeps the flavor"
    (Delta.flavor_of st2 10 = Vt_correction.Lvt)

(* Random swap walks at property scale: cold-vs-incremental at the end
   of each walk (the 500-swap test covers every intermediate step). *)
let test_random_walks_qcheck () =
  let gen =
    QCheck2.Gen.(
      triple (int_range 10 90) (int_range 0 1000) (list_size (int_range 1 25) (pair (int_range 0 1000) (int_range 0 2))))
  in
  let prop (n, seed, swaps) =
    let st0 = make_state ~n ~seed () in
    let flavors = Array.make n Vt_correction.Svt in
    let st =
      List.fold_left
        (fun st (c, f) ->
          let cell = c mod n in
          let flavor = all_flavors.(f) in
          flavors.(cell) <- flavor;
          fst (Delta.apply_swap st ~cell ~flavor))
        st0 swaps
    in
    let cold = make_state ~jobs:1 ~flavors ~n ~seed () in
    check_result_bits "walk end state" (Delta.result cold) (Delta.result st);
    true
  in
  qcheck ~count:25 "random swap walks: cold == incremental" gen prop

(* ---- job-count invariance ---- *)

let test_jobs_bit_identity () =
  let n = 120 in
  let run jobs =
    let st = make_state ~jobs ~n ~seed:21 () in
    let st, _ = Delta.apply_swap st ~cell:3 ~flavor:Vt_correction.Hvt in
    let st, r = Delta.apply_swap st ~cell:77 ~flavor:Vt_correction.Lvt in
    ignore st;
    r
  in
  let r1 = run 1 in
  check_result_bits "jobs 1 vs 2" r1 (run 2);
  check_result_bits "jobs 1 vs 4" r1 (run 4)

(* ---- agreement with the standalone estimators at the SVT state ---- *)

let test_unit_state_matches_estimators () =
  let n = 150 and seed = 5 in
  let placed = make_placed ~n ~seed in
  let rgcorr = Lazy.force rgcorr in
  let st = Delta.create ~distance_points:128 ~corr ~rgcorr placed in
  let r = Delta.result st in
  let ex =
    Estimator_exact.estimate ~distance_points:128 ~corr ~rgcorr placed
  in
  (* Same per-pair terms, different summation association (exact
     accumulator vs 8-lane kernel): equal to reassociation tolerance. *)
  check_rel ~tol:1e-12 "exact mean" ex.Estimator_exact.mean r.Delta.exact.Delta.mean;
  check_rel ~tol:1e-12 "exact variance" ex.Estimator_exact.variance
    r.Delta.exact.Delta.variance;
  let layout = placed.Placer.layout in
  let lin = Estimator_linear.estimate ~corr ~rgcorr ~layout () in
  check_rel ~tol:1e-12 "linear mean" lin.Estimator_linear.mean
    r.Delta.linear.Delta.mean;
  check_rel ~tol:1e-12 "linear variance" lin.Estimator_linear.variance
    r.Delta.linear.Delta.variance;
  let int0 =
    Estimator_integral.rect_2d ~corr ~rgcorr ~n ~width:(Layout.width layout)
      ~height:(Layout.height layout) ()
  in
  (* At unit scales the recombination multiplies by exactly 1.0 and
     adds exactly 0.0: bitwise. *)
  check_true "integral mean bitwise"
    (bits int0.Estimator_integral.mean = bits r.Delta.integral.Delta.mean);
  check_true "integral variance bitwise"
    (bits int0.Estimator_integral.variance
    = bits r.Delta.integral.Delta.variance)

(* ---- O(n), not O(n²), per swap ---- *)

let test_swap_work_is_linear () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let n = 100 in
  let st = make_state ~n ~seed:9 () in
  let pairs_after_create =
    List.assoc "exact.pairs" (Obs.snapshot ()).Obs.counters
  in
  check_true "cold create visits the full triangle"
    (pairs_after_create >= n * (n - 1) / 2);
  let st, _ = Delta.apply_swap st ~cell:0 ~flavor:Vt_correction.Hvt in
  let st, _ = Delta.apply_swap st ~cell:1 ~flavor:Vt_correction.Lvt in
  ignore st;
  let pairs_after_swaps =
    List.assoc "exact.pairs" (Obs.snapshot ()).Obs.counters
  in
  let per_swap = (pairs_after_swaps - pairs_after_create) / 2 in
  check_true
    (Printf.sprintf "swap pair visits are O(n): %d for n=%d" per_swap n)
    (per_swap = 2 * (n - 1));
  let swaps = List.assoc "delta.swaps" (Obs.snapshot ()).Obs.counters in
  check_true "delta.swaps counted" (swaps = 2)

(* ---- O(1) prediction helpers ---- *)

let test_mean_delta_prediction () =
  let st = make_state ~n:70 ~seed:13 () in
  let r0 = Delta.result st in
  let predicted = Delta.mean_delta st ~cell:5 ~flavor:Vt_correction.Hvt in
  let _, r1 = Delta.apply_swap st ~cell:5 ~flavor:Vt_correction.Hvt in
  check_rel ~tol:1e-9 "mean_delta predicts the exact-tier mean change"
    (r1.Delta.exact.Delta.mean -. r0.Delta.exact.Delta.mean)
    predicted;
  check_true "cell_mean positive" (Delta.cell_mean st 5 > 0.0)

let test_bad_inputs () =
  let st = make_state ~n:20 ~seed:2 () in
  check_true "cell out of range rejected"
    (try
       ignore (Delta.apply_swap st ~cell:20 ~flavor:Vt_correction.Svt);
       false
     with Invalid_argument _ -> true);
  check_true "flavor array length mismatch rejected"
    (try
       ignore
         (make_state ~flavors:(Array.make 3 Vt_correction.Svt) ~n:20 ~seed:2 ());
       false
     with Invalid_argument _ -> true)

let suite =
  ( "delta",
    [
      Alcotest.test_case "xsum order independence" `Quick
        test_xsum_order_independence;
      Alcotest.test_case "xsum exact cancellation" `Quick
        test_xsum_exact_cancellation;
      Alcotest.test_case "xsum non-finite poison" `Quick test_xsum_poison;
      Alcotest.test_case "xsum value rounds once, to nearest even" `Quick
        test_xsum_value_rounds_once;
      Alcotest.test_case "block extraction equals folded add" `Quick
        test_block_matches_fold;
      Alcotest.test_case "block extraction: exact cancellation" `Quick
        test_block_exact_cancellation;
      Alcotest.test_case "block extraction: non-finite poison" `Quick
        test_block_poison;
      Alcotest.test_case "500-swap sequence: every state cold-equal" `Slow
        test_500_swap_sequence;
      Alcotest.test_case "swap then revert restores bits" `Quick
        test_swap_then_revert;
      Alcotest.test_case "self-swap is bit-neutral" `Quick
        test_self_swap_neutral;
      test_random_walks_qcheck ();
      Alcotest.test_case "jobs 1/2/4 bit identity" `Quick
        test_jobs_bit_identity;
      Alcotest.test_case "SVT state matches standalone estimators" `Quick
        test_unit_state_matches_estimators;
      Alcotest.test_case "swap work is O(n) via exact.pairs" `Quick
        test_swap_work_is_linear;
      Alcotest.test_case "mean_delta O(1) prediction" `Quick
        test_mean_delta_prediction;
      Alcotest.test_case "bad inputs rejected" `Quick test_bad_inputs;
    ] )
