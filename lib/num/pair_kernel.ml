module Obs = Rgleak_obs.Obs

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type idx = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type buffers = {
  xs : f64;
  ys : f64;
  ty : idx;
  seg : idx;
  base : idx;
  cov : f64;
  nu : int;
  inv_dstep : float;
  kmax : int;
}

type isa = Auto | Scalar | Avx2 | Avx512

let isa_code = function Auto -> 0 | Scalar -> 1 | Avx2 -> 2 | Avx512 -> 3
let isa_name = function
  | Auto -> "auto"
  | Scalar -> "scalar"
  | Avx2 -> "avx2"
  | Avx512 -> "avx512"

external isa_supported_stub : int -> bool = "rgleak_pair_isa_supported"
[@@noalloc]

external best_isa_stub : unit -> int = "rgleak_pair_best_isa" [@@noalloc]

let available = function
  | Auto | Scalar -> true
  | isa -> isa_supported_stub (isa_code isa)

let best_isa () =
  match best_isa_stub () with
  | 2 -> Avx2
  | 3 -> Avx512
  | _ -> Scalar

let selected_isa () = isa_name (best_isa ())

external sum_stub :
  f64 ->
  f64 ->
  idx ->
  idx ->
  idx ->
  f64 ->
  int ->
  float ->
  int ->
  int ->
  int ->
  int ->
  float = "rgleak_pair_sum_bc" "rgleak_pair_sum"

let validate b ~lo ~hi =
  let n = Bigarray.Array1.dim b.xs in
  if Bigarray.Array1.dim b.ys <> n || Bigarray.Array1.dim b.ty <> n then
    invalid_arg "Pair_kernel: xs/ys/ty length mismatch";
  if b.nu < 0 || Bigarray.Array1.dim b.seg <> b.nu + 1 then
    invalid_arg "Pair_kernel: seg must have nu+1 entries";
  if Bigarray.Array1.dim b.base <> b.nu * b.nu then
    invalid_arg "Pair_kernel: base must have nu*nu entries";
  if b.nu > 0 && Bigarray.Array1.get b.seg b.nu <> n then
    invalid_arg "Pair_kernel: seg must end at the cell count";
  if b.kmax < 0 || b.kmax + 1 >= Bigarray.Array1.dim b.cov then
    invalid_arg "Pair_kernel: kmax out of covariance-table range";
  if lo < 0 || hi > n || lo > hi then invalid_arg "Pair_kernel: bad row range"

let sum ?(isa = Auto) b ~lo ~hi =
  validate b ~lo ~hi;
  sum_stub b.xs b.ys b.ty b.seg b.base b.cov b.nu b.inv_dstep b.kmax lo hi
    (isa_code isa)

external acc_stub :
  f64 ->
  f64 ->
  idx ->
  idx ->
  idx ->
  f64 ->
  f64 ->
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float ->
  int ->
  int ->
  int ->
  int ->
  unit = "rgleak_pair_acc_bc" "rgleak_pair_acc"

external acc_row_stub :
  f64 ->
  f64 ->
  idx ->
  idx ->
  idx ->
  f64 ->
  f64 ->
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float ->
  int ->
  int ->
  float ->
  int ->
  unit = "rgleak_pair_acc_row_bc" "rgleak_pair_acc_row"

let validate_scale b scale =
  if Bigarray.Array1.dim scale <> Bigarray.Array1.dim b.xs then
    invalid_arg "Pair_kernel: scale length mismatch"

let acc_band ?(isa = Auto) b ~scale ~acc ~lo ~hi =
  validate b ~lo ~hi;
  validate_scale b scale;
  acc_stub b.xs b.ys b.ty b.seg b.base b.cov scale (Xsum.raw acc) b.nu
    b.inv_dstep b.kmax lo hi (isa_code isa)

let acc_row ?(isa = Auto) b ~scale ~acc ~row ~srow =
  validate b ~lo:0 ~hi:(Bigarray.Array1.dim b.xs);
  validate_scale b scale;
  if row < 0 || row >= Bigarray.Array1.dim b.xs then
    invalid_arg "Pair_kernel: row out of range";
  acc_row_stub b.xs b.ys b.ty b.seg b.base b.cov scale (Xsum.raw acc) b.nu
    b.inv_dstep b.kmax row srow (isa_code isa)

external add_block_stub :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  float array ->
  int ->
  unit = "rgleak_xsum_add_block"
[@@noalloc]

let add_block ?(isa = Auto) acc terms =
  add_block_stub (Xsum.raw acc) terms (isa_code isa)

let lanes = 8

(* Pure-OCaml mirror of the C kernel, kept as the readable
   specification of the lane contract and as the bitwise test oracle.
   Every per-pair arithmetic step matches the stub's interpolation body
   lane for lane. *)
let sum_ocaml b ~lo ~hi =
  validate b ~lo ~hi;
  let open Bigarray.Array1 in
  let xs = b.xs and ys = b.ys and ty = b.ty in
  let seg = b.seg and base = b.base and cov = b.cov in
  let nu = b.nu and inv_dstep = b.inv_dstep and kmax = b.kmax in
  let acc = Array.make lanes 0.0 in
  let rem = Array.make lanes 0.0 in
  for a = lo to hi - 1 do
    let xa = unsafe_get xs a and ya = unsafe_get ys a in
    let rowbase = unsafe_get ty a * nu in
    for t = 0 to nu - 1 do
      let b0 = Stdlib.max (unsafe_get seg t) (a + 1) in
      let e = unsafe_get seg (t + 1) in
      let tb = unsafe_get base (rowbase + t) in
      let pair dst j p =
        let dx = unsafe_get xs p -. xa and dy = unsafe_get ys p -. ya in
        let d = sqrt ((dx *. dx) +. (dy *. dy)) in
        let pos = d *. inv_dstep in
        let k = int_of_float pos in
        let k = if k < 0 then 0 else if k > kmax then kmax else k in
        let t0 = unsafe_get cov (tb + k) and t1 = unsafe_get cov (tb + k + 1) in
        Array.unsafe_set dst j
          (Array.unsafe_get dst j
          +. (t0 +. ((pos -. float_of_int k) *. (t1 -. t0))))
      in
      let p = ref b0 in
      while !p + lanes <= e do
        for j = 0 to lanes - 1 do
          pair acc j (!p + j)
        done;
        p := !p + lanes
      done;
      let j = ref 0 in
      while !p < e do
        pair rem !j !p;
        incr p;
        incr j
      done
    done
  done;
  let s = ref 0.0 in
  for j = 0 to lanes - 1 do
    s := !s +. (acc.(j) +. rem.(j))
  done;
  !s
