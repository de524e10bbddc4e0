(** Allocation-free flat pair-sum kernel for the exact O(n²) estimator.

    The caller stages the placed design into flat bigarray buffers —
    cells sorted by (dense type, original index) so each row's partners
    split into at most [nu] contiguous type segments — and the kernel
    sums, for every pair (a, b) with [lo <= a < hi] and [a < b], the
    linear interpolation of the per-type-pair covariance table at the
    pair's Euclidean distance.  The C stub allocates nothing.  Each of
    its loops is written once over GCC vector types and compiled for
    the baseline target, AVX2 and AVX-512; the widest the host supports
    runs.

    Determinism contract: within each (row, type segment), pairs are
    consumed in 8-wide blocks with the j-th pair of a block feeding
    lane accumulator j; segment remainders (< 8 pairs) feed a second
    8-lane bank the same way; the result is the in-order sum of
    [lane.(j) +. rem.(j)] for j = 0..7.  All per-pair arithmetic is
    plain IEEE +, -, *, sqrt with FMA contraction disabled, so every
    target — and [sum_ocaml] — returns bit-identical results.  The value depends only on the buffer contents and
    [lo, hi), never on the job count or the host ISA. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type idx = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type buffers = {
  xs : f64;  (** x coordinate per sorted cell *)
  ys : f64;  (** y coordinate per sorted cell *)
  ty : idx;  (** dense type index per sorted cell *)
  seg : idx;  (** [nu + 1] segment starts: type t occupies [seg t, seg (t+1)) *)
  base : idx;  (** [nu * nu] element offsets of each type pair's table in [cov] *)
  cov : f64;  (** packed distance-binned covariance tables *)
  nu : int;  (** number of distinct (dense) cell types *)
  inv_dstep : float;  (** reciprocal of the distance bin width *)
  kmax : int;  (** largest valid bin index for interpolation start *)
}

type isa = Auto | Scalar | Avx2 | Avx512
(** [Scalar] is the baseline target (SSE2 on x86-64, the only target
    elsewhere). *)

val isa_name : isa -> string

val available : isa -> bool
(** [available isa] is true when the host CPU can run [isa].  [Auto]
    and [Scalar] are always available. *)

val best_isa : unit -> isa
(** The widest supported ISA; what [Auto] dispatches to. *)

val selected_isa : unit -> string
(** [isa_name (best_isa ())], for bench metadata. *)

val sum : ?isa:isa -> buffers -> lo:int -> hi:int -> float
(** [sum b ~lo ~hi] is the pair sum over rows [lo, hi).  Raises
    [Invalid_argument] on inconsistent buffer dimensions or row range.
    [?isa] defaults to [Auto]; requesting an unavailable ISA silently
    falls back to [Scalar] (same bits by contract). *)

val sum_ocaml : buffers -> lo:int -> hi:int -> float
(** Pure-OCaml mirror of the C kernel, bit-identical to [sum] on every
    ISA by the lane contract.  Test oracle; roughly 3x slower than the
    C [Scalar] path. *)

val acc_band :
  ?isa:isa -> buffers -> scale:f64 -> acc:Xsum.t -> lo:int -> hi:int -> unit
(** [acc_band b ~scale ~acc ~lo ~hi] accumulates, exactly into [acc],
    the term [(scale.(a) *. scale.(b)) *. w_ab] for every pair with
    [lo <= a < hi] and [a < b], where [w_ab] is the same interpolated
    covariance as {!sum} computes.  Terms are evaluated in SIMD into
    blocks of at most 1024 and each block is reduced by error-free
    extraction ({!add_block}).  Because the accumulation is exact, the
    represented value is independent of band split, iteration order
    and ISA — [Xsum.merge] of disjoint bands equals one full pass.
    [?isa] is a test hook with {!sum}'s convention. *)

val acc_row :
  ?isa:isa ->
  buffers ->
  scale:f64 ->
  acc:Xsum.t ->
  row:int ->
  srow:float ->
  unit
(** [acc_row b ~scale ~acc ~row ~srow] accumulates
    [(srow *. scale.(b)) *. w_rb] for every partner [b <> row].  The
    per-pair term doubles are identical to {!acc_band}'s for the same
    pair when [srow = scale.(row)] (distance and table lookups are
    symmetric; IEEE multiplication commutes), so passing
    [-.scale.(row)] retracts a row exactly and passing a new scale
    re-adds it — the O(n) swap update of the delta estimator. *)

val add_block : ?isa:isa -> Xsum.t -> float array -> unit
(** {!Xsum.add_block} on a forced ISA: the test hook that reaches each
    target's reduction directly. *)
