type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external dim : unit -> int = "rgleak_xsum_dim"

external add : t -> float -> unit = "rgleak_xsum_add" [@@noalloc]

external value : t -> float = "rgleak_xsum_value"

external add_block_stub : t -> float array -> int -> unit
  = "rgleak_xsum_add_block"
[@@noalloc]

(* ISA code 0 is Pair_kernel.Auto: the widest the host runs *)
let add_block t terms = add_block_stub t terms 0

let limbs = dim ()

let create () =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout limbs in
  Bigarray.Array1.fill a 0L;
  a

let copy t =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout limbs in
  Bigarray.Array1.blit t a;
  a

let merge ~into src =
  for i = 0 to limbs - 1 do
    Bigarray.Array1.unsafe_set into i
      (Int64.add
         (Bigarray.Array1.unsafe_get into i)
         (Bigarray.Array1.unsafe_get src i))
  done

let raw t = t
