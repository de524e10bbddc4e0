(** Dense row-major float matrices. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float

val of_row_major : rows:int -> cols:int -> float array -> t
(** [of_row_major ~rows ~cols data] adopts [data] (entry [(i, j)] at
    index [i * cols + j]) as the matrix's storage without copying it:
    the caller hands the array over and must not write to it again.
    Raises [Invalid_argument] unless [Array.length data = rows * cols]. *)

(** [lower_mul_vec_into m z out] sets [out.(i) = Σ_{k<=i} m[i,k]·z.(k)]
    for each row [i], accumulating from [0.0] in ascending [k] — the
    lower-triangular product used to color Gaussian samples through a
    Cholesky factor.  Allocation-free: results land in [out] (length >=
    the row count, like [z]; [out] must not be [z]).  Raises
    [Invalid_argument] on short vectors and on a matrix with fewer
    columns than rows, whose lower triangle would run past its
    storage. *)
val lower_mul_vec_into : t -> Vector.t -> Vector.t -> unit
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val mul : t -> t -> t
val mul_vec : t -> Vector.t -> Vector.t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val is_symmetric : ?tol:float -> t -> bool
val max_abs_diff : t -> t -> float

val det2 : t -> float
(** Determinant of a 2x2 matrix; raises on other shapes. *)

val inv2 : t -> t
(** Inverse of a 2x2 matrix; raises on other shapes or a singular input. *)
