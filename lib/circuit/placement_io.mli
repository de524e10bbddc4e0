(** Reader/writer for placement files (a minimal DEF-like text format).

    Late-mode estimation wants the {e actual} placement, not a random
    one; this format carries it alongside a netlist file:

    {v
    rgleak-placement 1
    die 320.0 240.0
    0 12.5 4.0
    1 20.5 4.0
    ...
    v}

    One line per instance: id, x, y (µm, cell centers).  {!apply} binds
    a placement to a netlist by snapping each coordinate to the nearest
    free site of a layout built over the declared die. *)

exception Format_error of string

type t = {
  width : float;
  height : float;
  positions : (float * float) array;  (** indexed by instance id *)
}

val to_string : t -> string
val of_string : string -> t

val of_placed : Placer.placed -> t
(** Extracts the placement of an already-placed design. *)

val apply : Netlist.t -> t -> Placer.placed
(** Binds the placement to the netlist: builds the site grid over the
    declared die and assigns every instance the nearest unoccupied site
    to its coordinate (greedy, in instance order).  Raises
    [Invalid_argument] if the instance count disagrees or the die
    cannot hold the netlist. *)

val max_snap_distance : Placer.placed -> t -> float
(** Largest distance between a requested coordinate and the assigned
    site center, for reporting placement fidelity. *)
