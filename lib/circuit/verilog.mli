(** Reader/writer for gate-level structural Verilog (the subset
    synthesis tools emit for standard-cell netlists).

    Supported constructs: a single [module] with a port list,
    [input]/[output]/[wire] declarations (scalar nets only — vectors are
    rejected with a clear error), and cell instantiations with named
    ([.A(n1)]) or positional connections.  Comments ([//] and
    [/* ... */]) are handled.  Example:

    {v
    module top (a, b, y);
      input a, b;
      output y;
      wire n1;
      INV_X1   u1 (.Z(n1), .A(a));
      NAND2_X1 u2 (.Z(y), .A(n1), .B(b));
    endmodule
    v}

    Port conventions for library cells: the output is named [Z] (also
    accepted on input: [ZN], [Y], [Q]); inputs are [A], [B], [C], [D]
    (or [A1..An]).  Positional connections put the output first.
    {!to_netlist} lowers a parsed module onto the 62-cell library;
    {!of_netlist} exports any library netlist. *)

type connection = Named of (string * string) list | Positional of string list

type instance = {
  cell : string;  (** library cell name *)
  inst_name : string;
  connection : connection;
}

type t = {
  name : string;
  ports : string list;
  inputs : string list;
  outputs : string list;
  wires : string list;
  instances : instance list;
}

exception Parse_error of { line : int; message : string }

val parse_string : string -> t
val to_string : t -> string

val to_netlist : t -> Netlist.t
(** Lowers onto the library: resolves each instance's output/input nets
    by the port conventions, orders instances topologically (sequential
    cells cut feedback loops), and maps drivers.  Raises
    [Invalid_argument] on unknown cells, undriven nets or combinational
    cycles. *)

val of_netlist : Netlist.t -> t
(** Export with generated net names ([n<i>], [pi<k>]); cells keep their
    library names, so the output parses back with {!to_netlist}. *)
