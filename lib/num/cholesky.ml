exception Not_positive_definite of int

(* Outer-product (right-looking) order on one flat row-major array that
   starts as the lower triangle of [a] and ends as the factor.  Step k
   takes pivot k, divides column k below it, then subtracts l_ik·l_jk
   from every trailing entry (i >= j > k).  Each entry thus still
   computes a_ij − l_i0·l_j0 − l_i1·l_j1 − … in ascending k and divides
   once — the operation sequence of the textbook i-j-k loop, hence the
   same bits — but the inner loop runs along a row over independent
   entries instead of down one serial chain of subtractions.

   Steps go in pairs (k, k+1): column k+1 first takes step k's update
   alone, then one pass over the trailing block subtracts both terms in
   turn, which halves the loads and stores of that O(n³) sweep.  Pivot
   k and row k's norm are checked at step k, before anything of a later
   row, so the first failure raises the same index as the i-j-k loop. *)
let decompose_inner ~on_bad_pivot a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Cholesky: matrix must be square";
  let w = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to i do
      w.((i * n) + j) <- Matrix.get a i j
    done
  done;
  (* Step k: take pivot k, then divide column k below it and copy it
     into [col], where the trailing update reads it contiguously. *)
  let column k col =
    let s = w.((k * n) + k) in
    let lkk =
      match on_bad_pivot with
      | None ->
        if s <= 0.0 then raise (Not_positive_definite k);
        sqrt s
      | Some tol ->
        (* A pivot slightly below zero is numerical semi-definiteness;
           one substantially below zero means the matrix is indefinite
           and no Cholesky-like factor exists — refuse rather than
           silently produce an inflated factor. *)
        if s < -.(1e6 *. tol) then raise (Not_positive_definite k);
        if s > tol then sqrt s else 0.0
    in
    w.((k * n) + k) <- lkk;
    (* Row-norm invariant: (L Lᵀ)ₖₖ must reproduce aₖₖ.  Indefinite
       inputs in tolerant mode inflate rows through tiny pivots; catch
       that here instead of returning a corrupt factor. *)
    (match on_bad_pivot with
    | None -> ()
    | Some _ ->
      let row_norm2 = ref 0.0 in
      for m = 0 to k do
        let lkm = w.((k * n) + m) in
        row_norm2 := !row_norm2 +. (lkm *. lkm)
      done;
      if !row_norm2 > (Matrix.get a k k *. 1.000001) +. 1e-6 then
        raise (Not_positive_definite k));
    for i = k + 1 to n - 1 do
      (* A zero pivot in semidefinite mode means the row is linearly
         dependent; its off-diagonal contribution is zero. *)
      let lik = if lkk = 0.0 then 0.0 else w.((i * n) + k) /. lkk in
      w.((i * n) + k) <- lik;
      col.(i) <- lik
    done
  in
  let c0 = Array.make n 0.0 and c1 = Array.make n 0.0 in
  let k = ref 0 in
  while !k + 1 < n do
    let k0 = !k in
    let k1 = k0 + 1 in
    column k0 c0;
    for i = k1 to n - 1 do
      w.((i * n) + k1) <- w.((i * n) + k1) -. (c0.(i) *. c0.(k1))
    done;
    column k1 c1;
    for i = k1 + 1 to n - 1 do
      let li0 = c0.(i) and li1 = c1.(i) and row = i * n in
      for j = k1 + 1 to i do
        Array.unsafe_set w (row + j)
          (Array.unsafe_get w (row + j)
          -. (li0 *. Array.unsafe_get c0 j)
          -. (li1 *. Array.unsafe_get c1 j))
      done
    done;
    k := k0 + 2
  done;
  (* An odd n leaves the last pivot, which has no trailing block. *)
  if !k < n then column !k c0;
  Matrix.of_row_major ~rows:n ~cols:n w

let decompose a = decompose_inner ~on_bad_pivot:None a

let decompose_semidefinite ?(jitter = 1e-10) a =
  let n = Matrix.rows a in
  let max_diag = ref 0.0 in
  for i = 0 to n - 1 do
    max_diag := Float.max !max_diag (Float.abs (Matrix.get a i i))
  done;
  let tol = jitter *. Float.max !max_diag 1.0 in
  decompose_inner ~on_bad_pivot:(Some tol) a

type robust = { factor : Matrix.t; jitter : float; attempts : int }

(* Escalating relative regularization ladder.  The first rung is the
   unperturbed matrix; each later rung adds jitter·I with jitter a
   fixed fraction of the largest diagonal entry.  1e-2 is the ceiling:
   a matrix still indefinite after inflating its diagonal by 1% is not
   "near"-PSD and deserves a diagnostic, not a silent repair. *)
let jitter_ladder = [| 0.0; 1e-12; 1e-10; 1e-8; 1e-6; 1e-4; 1e-2 |]

let decompose_robust ?(max_attempts = Array.length jitter_ladder) a =
  if max_attempts < 1 then
    invalid_arg "Cholesky.decompose_robust: need at least one attempt";
  let n = Matrix.rows a in
  let scale = ref 0.0 in
  for i = 0 to n - 1 do
    scale := Float.max !scale (Float.abs (Matrix.get a i i))
  done;
  let scale = Float.max !scale 1.0 in
  let rungs = Stdlib.min max_attempts (Array.length jitter_ladder) in
  let rec attempt k =
    if k >= rungs then
      Guard.numeric ~site:"cholesky"
        (Printf.sprintf
           "matrix (%dx%d) is indefinite: %d jitter-retry attempts up to \
            %.1e relative regularization failed"
           n n rungs jitter_ladder.(rungs - 1))
    else begin
      let jitter = jitter_ladder.(k) *. scale in
      let candidate =
        if jitter = 0.0 then a
        else
          Matrix.init ~rows:n ~cols:n (fun i j ->
              Matrix.get a i j +. (if i = j then jitter else 0.0))
      in
      (* The fault probe counts as a failed factorization attempt, so a
         single armed site exercises the whole escalation path. *)
      if Guard.Fault.fire "cholesky" then attempt (k + 1)
      else
        match decompose_semidefinite candidate with
        | factor -> { factor; jitter; attempts = k + 1 }
        | exception Not_positive_definite _ -> attempt (k + 1)
    end
  in
  attempt 0

let solve l b =
  let n = Matrix.rows l in
  if Array.length b <> n then invalid_arg "Cholesky.solve: dimension mismatch";
  (* Forward substitution: l y = b. *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (Matrix.get l i k *. y.(k))
    done;
    y.(i) <- !s /. Matrix.get l i i
  done;
  (* Back substitution: lᵀ x = y. *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Matrix.get l k i *. x.(k))
    done;
    x.(i) <- !s /. Matrix.get l i i
  done;
  x

let sample_into l rng ~z ~out =
  let n = Matrix.rows l in
  if Array.length z < n || Array.length out < n then
    invalid_arg "Cholesky.sample_into: scratch shorter than the factor";
  for i = 0 to n - 1 do
    z.(i) <- Rng.gaussian rng
  done;
  Matrix.lower_mul_vec_into l z out

let sample l rng =
  let n = Matrix.rows l in
  let z = Array.make n 0.0 and out = Array.make n 0.0 in
  sample_into l rng ~z ~out;
  out

let log_det l =
  let n = Matrix.rows l in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. log (Matrix.get l i i)
  done;
  2.0 *. !s
