open Rgleak_num
open Testutil

let test_vector_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  check_close ~tol:1e-12 "dot" 32.0 (Vector.dot x y);
  check_close ~tol:1e-12 "norm" (sqrt 14.0) (Vector.norm2 x);
  check_close ~tol:1e-12 "add" 9.0 (Vector.add x y).(2);
  check_close ~tol:1e-12 "sub" (-3.0) (Vector.sub x y).(0);
  check_close ~tol:1e-12 "scale" 6.0 (Vector.scale 2.0 x).(2);
  let y' = Vector.copy y in
  Vector.axpy ~alpha:2.0 x y';
  check_close ~tol:1e-12 "axpy" 12.0 y'.(2)

let test_linspace () =
  let v = Vector.linspace 0.0 1.0 5 in
  check_close ~tol:1e-15 "first" 0.0 v.(0);
  check_close ~tol:1e-15 "last exactly hi" 1.0 v.(4);
  check_close ~tol:1e-15 "step" 0.25 v.(1);
  Alcotest.check_raises "linspace needs 2 points"
    (Invalid_argument "Vector.linspace: need at least two points") (fun () ->
      ignore (Vector.linspace 0.0 1.0 1))

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_close ~tol:1e-12 "mul 00" 19.0 (Matrix.get c 0 0);
  check_close ~tol:1e-12 "mul 01" 22.0 (Matrix.get c 0 1);
  check_close ~tol:1e-12 "mul 10" 43.0 (Matrix.get c 1 0);
  check_close ~tol:1e-12 "mul 11" 50.0 (Matrix.get c 1 1)

let test_matrix_identity =
  qcheck ~count:100 "A * I = A"
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (list_size (int_range 1 6) (float_range (-10.0) 10.0)))
    (fun rows ->
      match rows with
      | [] -> true
      | first :: _ ->
        let cols = List.length first in
        if cols = 0 || List.exists (fun r -> List.length r <> cols) rows then
          true (* skip ragged *)
        else begin
          let a =
            Matrix.of_arrays
              (Array.of_list (List.map Array.of_list rows))
          in
          let prod = Matrix.mul a (Matrix.identity cols) in
          Matrix.max_abs_diff a prod < 1e-12
        end)

let test_transpose () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = Matrix.transpose a in
  check_close "t rows" 3.0 (float_of_int (Matrix.rows at));
  check_close "t cols" 2.0 (float_of_int (Matrix.cols at));
  check_close ~tol:1e-12 "t value" 6.0 (Matrix.get at 2 1)

let test_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Matrix.mul_vec a [| 1.0; 1.0 |] in
  check_close ~tol:1e-12 "mul_vec 0" 3.0 y.(0);
  check_close ~tol:1e-12 "mul_vec 1" 7.0 y.(1)

let test_det_inv_2x2 () =
  let a = Matrix.of_arrays [| [| 3.0; 1.0 |]; [| 2.0; 4.0 |] |] in
  check_close ~tol:1e-12 "det" 10.0 (Matrix.det2 a);
  let inv = Matrix.inv2 a in
  let prod = Matrix.mul a inv in
  check_true "A * A^-1 = I"
    (Matrix.max_abs_diff prod (Matrix.identity 2) < 1e-12)

(* Random SPD matrix: A = B Bᵀ + eps I. *)
let gen_spd =
  QCheck2.Gen.(
    int_range 1 8 >>= fun n ->
    list_repeat (n * n) (float_range (-2.0) 2.0) >|= fun entries ->
    let b =
      Matrix.init ~rows:n ~cols:n (fun i j -> List.nth entries ((i * n) + j))
    in
    let a = Matrix.mul b (Matrix.transpose b) in
    Matrix.add a (Matrix.scale 0.1 (Matrix.identity n)))

let test_cholesky_roundtrip =
  qcheck ~count:100 "L Lᵀ reconstructs SPD matrix" gen_spd (fun a ->
      let l = Cholesky.decompose a in
      let recon = Matrix.mul l (Matrix.transpose l) in
      Matrix.max_abs_diff a recon < 1e-8)

let test_cholesky_solve =
  qcheck ~count:100 "solve satisfies A x = b" gen_spd (fun a ->
      let n = Matrix.rows a in
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let l = Cholesky.decompose a in
      let x = Cholesky.solve l b in
      let ax = Matrix.mul_vec a x in
      Vector.max_abs_diff ax b < 1e-6)

let test_cholesky_rejects_indefinite () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  check_true "indefinite raises"
    (try
       ignore (Cholesky.decompose a);
       false
     with Cholesky.Not_positive_definite _ -> true)

let test_cholesky_semidefinite () =
  (* perfectly correlated 2x2: rank 1 *)
  let a = Matrix.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let l = Cholesky.decompose_semidefinite a in
  let recon = Matrix.mul l (Matrix.transpose l) in
  check_true "semidefinite factor reconstructs" (Matrix.max_abs_diff a recon < 1e-8)

let test_cholesky_sample_covariance () =
  (* sample from a known 2x2 covariance and verify empirically *)
  let cov = Matrix.of_arrays [| [| 2.0; 0.6 |]; [| 0.6; 1.0 |] |] in
  let l = Cholesky.decompose cov in
  let rng = Rng.create ~seed:21 () in
  let acc = Stats.Cov_acc.create () in
  let acc1 = Stats.Acc.create () and acc2 = Stats.Acc.create () in
  for _ = 1 to 100_000 do
    let z = Cholesky.sample l rng in
    Stats.Cov_acc.add acc z.(0) z.(1);
    Stats.Acc.add acc1 z.(0);
    Stats.Acc.add acc2 z.(1)
  done;
  check_rel ~tol:0.03 "sampled var 1" 2.0 (Stats.Acc.variance acc1);
  check_rel ~tol:0.03 "sampled var 2" 1.0 (Stats.Acc.variance acc2);
  check_rel ~tol:0.05 "sampled cov" 0.6 (Stats.Cov_acc.covariance acc)

let test_log_det () =
  let a = Matrix.of_arrays [| [| 4.0; 0.0 |]; [| 0.0; 9.0 |] |] in
  let l = Cholesky.decompose a in
  check_close ~tol:1e-12 "log det" (log 36.0) (Cholesky.log_det l)

(* ---- bit identity against the textbook loops ----

   Test-only copies of the i-j-k Cholesky factor and the row-at-a-time
   lower-triangular product.  The library kernels reorder the loops for
   speed but keep each entry's own operation sequence, so they must
   agree with these bit for bit — including which pivot index raises. *)

let oracle_decompose ~on_bad_pivot a =
  let n = Matrix.rows a in
  let l = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (Matrix.get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (Matrix.get l i k *. Matrix.get l j k)
      done;
      if i = j then begin
        match on_bad_pivot with
        | None ->
          if !s <= 0.0 then raise (Cholesky.Not_positive_definite i);
          Matrix.set l i i (sqrt !s)
        | Some tol ->
          if !s < -.(1e6 *. tol) then raise (Cholesky.Not_positive_definite i);
          Matrix.set l i i (if !s > tol then sqrt !s else 0.0)
      end
      else begin
        let ljj = Matrix.get l j j in
        Matrix.set l i j (if ljj = 0.0 then 0.0 else !s /. ljj)
      end
    done;
    match on_bad_pivot with
    | None -> ()
    | Some _ ->
      let row_norm2 = ref 0.0 in
      for k = 0 to i do
        row_norm2 := !row_norm2 +. (Matrix.get l i k *. Matrix.get l i k)
      done;
      if !row_norm2 > (Matrix.get a i i *. 1.000001) +. 1e-6 then
        raise (Cholesky.Not_positive_definite i)
  done;
  l

(* The tolerance [Cholesky.decompose_semidefinite] derives from its
   default jitter. *)
let semidefinite_tol a =
  let m = ref 0.0 in
  for i = 0 to Matrix.rows a - 1 do
    m := Float.max !m (Float.abs (Matrix.get a i i))
  done;
  1e-10 *. Float.max !m 1.0

let oracle_lower_mul m z =
  Array.init (Matrix.rows m) (fun i ->
      let s = ref 0.0 in
      for k = 0 to i do
        s := !s +. (Matrix.get m i k *. z.(k))
      done;
      !s)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let matrix_bits_equal a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && Array.for_all2 bits_equal (Matrix.to_arrays a) (Matrix.to_arrays b)

let outcome f =
  match f () with
  | l -> Ok l
  | exception Cholesky.Not_positive_definite k -> Error k

let same_outcome a b =
  match (a, b) with
  | Ok l, Ok l' -> matrix_bits_equal l l'
  | Error k, Error k' -> k = k'
  | _ -> false

let strict_matches a =
  same_outcome
    (outcome (fun () -> Cholesky.decompose a))
    (outcome (fun () -> oracle_decompose ~on_bad_pivot:None a))

let tolerant_matches a =
  same_outcome
    (outcome (fun () -> Cholesky.decompose_semidefinite a))
    (outcome (fun () ->
         oracle_decompose ~on_bad_pivot:(Some (semidefinite_tol a)) a))

(* [out] and [z] padded past [n], as the per-domain sampling scratch
   is; the padding must come back untouched. *)
let product_matches ?(pad = 5) m rng =
  let n = Matrix.rows m in
  let z = Array.init (n + pad) (fun _ -> Rng.gaussian rng) in
  let out = Array.make (n + pad) Float.nan in
  Matrix.lower_mul_vec_into m z out;
  bits_equal (Array.sub out 0 n) (oracle_lower_mul m z)
  && Array.for_all Float.is_nan (Array.sub out n pad)

let random_spd rng n =
  let b = Matrix.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
  Matrix.add
    (Matrix.mul b (Matrix.transpose b))
    (Matrix.scale 0.1 (Matrix.identity n))

let test_factor_bits_by_size =
  qcheck ~count:120 "random SPD: factor and product bit-identical, n = 0..67"
    QCheck2.Gen.(pair (int_range 0 67) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed () in
      let a = random_spd rng n in
      let l = Cholesky.decompose a in
      matrix_bits_equal l (oracle_decompose ~on_bad_pivot:None a)
      && tolerant_matches a
      && product_matches l rng)

(* Exponential correlation over locations with duplicates: duplicated
   rows are linearly dependent, so tolerant mode meets zero pivots and
   zero rows below them. *)
let duplicated_locations_corr rng ~n =
  let base = Array.init ((n / 2) + 1) (fun _ ->
      (Rng.uniform rng *. 100.0, Rng.uniform rng *. 100.0)) in
  let locs = Array.init n (fun i ->
      if i mod 3 = 2 then base.(i / 3) else base.(i / 2)) in
  Matrix.init ~rows:n ~cols:n (fun i j ->
      let (xi, yi) = locs.(i) and (xj, yj) = locs.(j) in
      let d = sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0)) in
      exp (-.d /. 40.0))

let test_factor_bits_semidefinite () =
  let rng = Rng.create ~seed:17 () in
  List.iter
    (fun n ->
      let a = duplicated_locations_corr rng ~n in
      let l = Cholesky.decompose_semidefinite a in
      check_true (Printf.sprintf "semidefinite n=%d" n) (tolerant_matches a);
      check_true (Printf.sprintf "semidefinite product n=%d" n)
        (product_matches l rng);
      check_true (Printf.sprintf "n=%d has a zero pivot" n)
        (List.exists (fun i -> Matrix.get l i i = 0.0) (List.init n Fun.id));
      check_true (Printf.sprintf "strict n=%d" n) (strict_matches a))
    [ 3; 9; 30; 61 ]

let test_factor_bits_indefinite () =
  let rng = Rng.create ~seed:23 () in
  List.iter
    (fun n ->
      (* B Bᵀ + 0.1·I − n·I is indefinite: some pivot goes negative. *)
      let spd = random_spd rng n in
      let a =
        Matrix.sub spd (Matrix.scale (float_of_int n) (Matrix.identity n))
      in
      (match outcome (fun () -> Cholesky.decompose a) with
      | Ok _ -> Alcotest.failf "n=%d: indefinite input factored" n
      | Error _ -> ());
      check_true (Printf.sprintf "strict raise index n=%d" n)
        (strict_matches a);
      check_true (Printf.sprintf "tolerant raise index n=%d" n)
        (tolerant_matches a))
    [ 2; 5; 12; 40; 67 ];
  (* A pivot a hair below zero: strict mode raises, tolerant mode
     zeroes it. *)
  let a =
    Matrix.of_arrays
      [|
        [| 1.0; 1.0; 0.0 |]; [| 1.0; 1.0 -. 1e-13; 1.0 |]; [| 0.0; 1.0; 1.0 |];
      |]
  in
  check_true "near-zero pivot, strict" (strict_matches a);
  check_true "near-zero pivot, tolerant" (tolerant_matches a);
  (* Rows 1 and 2 correlated slightly above 1: pivot 2 is -2e-5, inside
     the tolerance band, so only the row-norm check catches it. *)
  let a =
    Matrix.init ~rows:4 ~cols:4 (fun i j ->
        if i = j then 1.0
        else if (i = 1 && j = 2) || (i = 2 && j = 1) then 1.0 +. 1e-5
        else 0.0)
  in
  (match outcome (fun () -> Cholesky.decompose_semidefinite a) with
  | Error 2 -> ()
  | _ -> Alcotest.fail "row-norm check should raise at index 2");
  check_true "row-norm raise, tolerant" (tolerant_matches a);
  check_true "row-norm raise, strict" (strict_matches a)

let test_factor_bits_spherical_500 () =
  let corr =
    Rgleak_process.Corr_model.create
      (Rgleak_process.Corr_model.Spherical { dmax = 120.0 })
      Rgleak_process.Process_param.default_channel_length
  in
  let rng = Rng.create ~seed:500 () in
  let n = 500 in
  let pts = Array.init n (fun _ ->
      (Rng.uniform rng *. 300.0, Rng.uniform rng *. 300.0)) in
  let a =
    Matrix.init ~rows:n ~cols:n (fun i j ->
        if i = j then 1.0
        else
          let (xi, yi) = pts.(i) and (xj, yj) = pts.(j) in
          Rgleak_process.Corr_model.wid corr
            (sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0))))
  in
  check_true "spherical-120, tolerant" (tolerant_matches a);
  check_true "spherical-120, strict" (strict_matches a);
  check_true "spherical-120 product"
    (product_matches ~pad:64 (Cholesky.decompose_semidefinite a) rng)

let test_lower_mul_shapes () =
  (* More columns than rows: only the lower triangle is read. *)
  let rng = Rng.create ~seed:31 () in
  let wide = Matrix.init ~rows:6 ~cols:9 (fun _ _ -> Rng.gaussian rng) in
  check_true "6x9 product" (product_matches wide rng);
  (* Fewer columns than rows: row i's triangle would run past the
     storage, so the matrix is refused. *)
  let tall = Matrix.init ~rows:3 ~cols:1 (fun _ _ -> 1.0) in
  Alcotest.check_raises "3x1 rejected"
    (Invalid_argument "Matrix.lower_mul_vec_into: fewer columns than rows")
    (fun () ->
      Matrix.lower_mul_vec_into tall [| 1.0; 2.0; 3.0 |] (Array.make 3 0.0));
  Alcotest.check_raises "short vector rejected"
    (Invalid_argument
       "Matrix.lower_mul_vec_into: vector shorter than the matrix")
    (fun () ->
      Matrix.lower_mul_vec_into (Matrix.identity 4) (Array.make 3 0.0)
        (Array.make 4 0.0))

let test_of_row_major () =
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let m = Matrix.of_row_major ~rows:2 ~cols:3 data in
  check_close "entry (1, 2)" 6.0 (Matrix.get m 1 2);
  check_close "entry (0, 1)" 2.0 (Matrix.get m 0 1);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Matrix.of_row_major: array length is not rows * cols")
    (fun () -> ignore (Matrix.of_row_major ~rows:2 ~cols:2 data))

let suite =
  ( "linalg",
    [
      case "vector ops" test_vector_ops;
      case "linspace" test_linspace;
      case "matrix multiply" test_matrix_mul;
      test_matrix_identity;
      case "transpose" test_transpose;
      case "matrix-vector" test_mul_vec;
      case "2x2 det and inverse" test_det_inv_2x2;
      test_cholesky_roundtrip;
      test_cholesky_solve;
      case "cholesky rejects indefinite" test_cholesky_rejects_indefinite;
      case "cholesky semidefinite" test_cholesky_semidefinite;
      case "cholesky sampling covariance" test_cholesky_sample_covariance;
      case "log determinant" test_log_det;
      test_factor_bits_by_size;
      case "factor bits, semidefinite" test_factor_bits_semidefinite;
      case "factor bits, indefinite raise index" test_factor_bits_indefinite;
      case "factor bits, spherical-120 at n=500" test_factor_bits_spherical_500;
      case "lower product shapes" test_lower_mul_shapes;
      case "of_row_major" test_of_row_major;
    ] )
