(** Minimal JSON values: the one reader and printer behind every
    document [rgleak] reads or writes — batch records, serve replies,
    golden reports, metrics, ledger lines and bench documents.

    The printer emits numbers with enough precision ([%.17g]) that
    parsing its output reproduces the same floats, so a report written,
    committed, and re-parsed compares bit-for-bit against a fresh run —
    the golden-diff engine's notion of "identical" rests on this
    round-trip. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : ?indent:int -> t -> string
(** Serialize; [indent > 0] pretty-prints with that many spaces per
    level (and a trailing newline), [indent = 0] (default) puts the
    whole document on one line as [{"k": v,"k2": v}].  Integers below
    1e15 print as [%.0f], other finite numbers as [%.17g], and nan and
    infinities as [null]. *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input.  [\uXXXX] escapes,
    surrogate pairs included, decode to UTF-8; bad hex digits and lone
    surrogates are errors. *)

val parse_file : string -> t

val mem : string -> t -> t option
(** Object member lookup; [None] on missing key or non-object. *)

val get : string -> t -> t
(** Like {!mem} but raises {!Parse_error} on a missing key. *)

val str : t -> string
val num : t -> float
val bool : t -> bool
val arr : t -> t list
(** Coercions; raise {!Parse_error} on a shape mismatch. *)
