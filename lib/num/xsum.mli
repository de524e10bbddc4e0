(** Exact (superaccumulator) summation of doubles.

    A value of type {!t} holds an exact fixed-point representation of a
    running sum: every [add] is reflected without rounding, so the
    represented value is a pure function of the multiset of terms added
    — independent of order, grouping, or how partial accumulators were
    [merge]d.  Subtraction is exact too (add the negated term), which
    makes retract-and-replace updates bit-identical to a cold rebuild:
    the property the delta estimator's equivalence battery relies on.

    [value] first normalizes the limbs into a canonical form and then
    rounds once to the nearest double, so extraction is deterministic.
    Capacity is ~2^42 accumulated terms, far beyond any pair loop here;
    non-finite terms poison the accumulator and [value] returns NaN
    (picked up by the Guard at the ["delta"] site). *)

type t

val create : unit -> t
(** A fresh accumulator holding exactly zero. *)

val copy : t -> t
(** Independent copy; further adds to either side don't affect the
    other.  O(limbs) — cheap relative to any O(n) row pass. *)

val add : t -> float -> unit
(** [add t x] accumulates [x] exactly.  [add t (-.x)] retracts a
    previously added [x] exactly. *)

val add_block : t -> float array -> unit
(** [add_block t terms] accumulates every element of [terms] exactly:
    the same represented value as folding {!add} over the array.  The
    terms are reduced in blocks of 1024 by the error-free extraction
    of Rump, Ogita and Oishi (2008), a few vector passes and one limb
    add per pass instead of one limb add per term. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds [src]'s exact content into [into].
    Exact limb-wise addition: merging band partials in any order
    yields the same represented value. *)

val value : t -> float
(** The exact sum rounded once to the nearest double (ties to even);
    NaN if any non-finite term was added. *)

val raw : t -> (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The underlying limb buffer, for the C pair-accumulation kernels. *)
