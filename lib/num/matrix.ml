type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)
let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: index out of bounds";
  m.data.((i * m.cols) + j)

let of_row_major ~rows ~cols data =
  if rows < 0 || cols < 0 then
    invalid_arg "Matrix.of_row_major: negative dimension";
  if Array.length data <> rows * cols then
    invalid_arg "Matrix.of_row_major: array length is not rows * cols";
  { rows; cols; data }

(* Lower-triangular matrix-vector product into caller storage:
   out_i = Σ_{k<=i} m[i,k]·z[k], accumulated in ascending k.  Lives
   here so the loop runs on the raw data array — without flambda a
   cross-module element accessor boxes every returned float, which in
   per-replica hot loops costs one minor allocation per multiply-add.

   Rows go four at a time with one accumulator each: a single row's
   sum is a serial chain of dependent adds, four interleaved chains
   keep the FPU busy.  Each accumulator still starts at 0.0 and adds
   its own row in ascending k, so every output has exactly the add
   sequence of the row-at-a-time loop and the same bits. *)
let lower_mul_vec_into m z out =
  let n = m.rows and c = m.cols in
  if c < n then
    invalid_arg "Matrix.lower_mul_vec_into: fewer columns than rows";
  if Array.length z < n || Array.length out < n then
    invalid_arg "Matrix.lower_mul_vec_into: vector shorter than the matrix";
  let data = m.data in
  let i0 = ref 0 in
  while !i0 + 3 < n do
    let i = !i0 in
    let r0 = i * c in
    let r1 = r0 + c in
    let r2 = r1 + c in
    let r3 = r2 + c in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for k = 0 to i do
      let zk = Array.unsafe_get z k in
      s0 := !s0 +. (Array.unsafe_get data (r0 + k) *. zk);
      s1 := !s1 +. (Array.unsafe_get data (r1 + k) *. zk);
      s2 := !s2 +. (Array.unsafe_get data (r2 + k) *. zk);
      s3 := !s3 +. (Array.unsafe_get data (r3 + k) *. zk)
    done;
    (* The corner the shared loop stops short of: rows i+1..i+3 reach
       column i+1, i+2, i+3 in turn, still in ascending k per row. *)
    let z1 = Array.unsafe_get z (i + 1) in
    let z2 = Array.unsafe_get z (i + 2) in
    let z3 = Array.unsafe_get z (i + 3) in
    s1 := !s1 +. (Array.unsafe_get data (r1 + i + 1) *. z1);
    s2 := !s2 +. (Array.unsafe_get data (r2 + i + 1) *. z1);
    s3 := !s3 +. (Array.unsafe_get data (r3 + i + 1) *. z1);
    s2 := !s2 +. (Array.unsafe_get data (r2 + i + 2) *. z2);
    s3 := !s3 +. (Array.unsafe_get data (r3 + i + 2) *. z2);
    s3 := !s3 +. (Array.unsafe_get data (r3 + i + 3) *. z3);
    Array.unsafe_set out i !s0;
    Array.unsafe_set out (i + 1) !s1;
    Array.unsafe_set out (i + 2) !s2;
    Array.unsafe_set out (i + 3) !s3;
    i0 := i + 4
  done;
  for i = !i0 to n - 1 do
    let row = i * c in
    let s = ref 0.0 in
    for k = 0 to i do
      s := !s +. (Array.unsafe_get data (row + k) *. Array.unsafe_get z k)
    done;
    Array.unsafe_set out i !s
  done

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set: index out of bounds";
  m.data.((i * m.cols) + j) <- v

let copy m = { m with data = Array.copy m.data }
let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let m = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          m.data.((i * b.cols) + j) <-
            m.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  m

let mul_vec m x =
  if m.cols <> Array.length x then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.cols - 1 do
        s := !s +. (m.data.((i * m.cols) + j) *. x.(j))
      done;
      !s)

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: shape mismatch";
  { a with data = Array.mapi (fun i x -> f x b.data.(i)) a.data }

let add = map2 ( +. )
let sub = map2 ( -. )
let scale alpha m = { m with data = Array.map (fun x -> alpha *. x) m.data }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then create ~rows:0 ~cols:0
  else begin
    let cols = Array.length a.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> cols then
          invalid_arg "Matrix.of_arrays: ragged rows")
      a;
    init ~rows ~cols (fun i j -> a.(i).(j))
  end

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let is_symmetric ?(tol = 1e-12) m =
  m.rows = m.cols
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  Array.iteri
    (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i))))
    a.data;
  !m

let check_2x2 m =
  if m.rows <> 2 || m.cols <> 2 then invalid_arg "Matrix: expected 2x2"

let det2 m =
  check_2x2 m;
  (get m 0 0 *. get m 1 1) -. (get m 0 1 *. get m 1 0)

let inv2 m =
  check_2x2 m;
  let d = det2 m in
  if Float.abs d < 1e-300 then invalid_arg "Matrix.inv2: singular matrix";
  of_arrays
    [| [| get m 1 1 /. d; -.get m 0 1 /. d |];
       [| -.get m 1 0 /. d; get m 0 0 /. d |] |]
