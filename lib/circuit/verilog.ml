open Rgleak_cells

type connection = Named of (string * string) list | Positional of string list

type instance = {
  cell : string;
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

let fail line message = raise (Parse_error { line; message })

(* ---------- tokenizer ---------- *)

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Dot
  | Kw_module
  | Kw_endmodule
  | Kw_input
  | Kw_output
  | Kw_wire

let tokenize text =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while !i + 1 < n && not !closed do
        if text.[!i] = '\n' then incr line;
        if text.[!i] = '*' && text.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail !line "unterminated block comment"
    end
    else if c = '[' then fail !line "vector nets are not supported"
    else if c = '(' then (tokens := (Lparen, !line) :: !tokens; incr i)
    else if c = ')' then (tokens := (Rparen, !line) :: !tokens; incr i)
    else if c = ',' then (tokens := (Comma, !line) :: !tokens; incr i)
    else if c = ';' then (tokens := (Semi, !line) :: !tokens; incr i)
    else if c = '.' then (tokens := (Dot, !line) :: !tokens; incr i)
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      let word = String.sub text start (!i - start) in
      let tok =
        match word with
        | "module" -> Kw_module
        | "endmodule" -> Kw_endmodule
        | "input" -> Kw_input
        | "output" -> Kw_output
        | "wire" -> Kw_wire
        | _ -> Ident word
      in
      tokens := (tok, !line) :: !tokens
    end
    else fail !line (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

(* ---------- parser ---------- *)

type cursor = { mutable toks : (token * int) list }

let peek cur =
  match cur.toks with [] -> None | (t, l) :: _ -> Some (t, l)

let advance cur =
  match cur.toks with
  | [] -> fail 0 "unexpected end of input"
  | (t, l) :: rest ->
    cur.toks <- rest;
    (t, l)

let expect cur what pred =
  let t, l = advance cur in
  match pred t with
  | Some v -> v
  | None -> fail l (Printf.sprintf "expected %s" what)

let expect_ident cur =
  expect cur "identifier" (function Ident s -> Some s | _ -> None)

let expect_tok cur what target =
  ignore (expect cur what (fun t -> if t = target then Some () else None))

let ident_list cur =
  (* ident (, ident)* ; *)
  let rec go acc =
    let id = expect_ident cur in
    match advance cur with
    | Comma, _ -> go (id :: acc)
    | Semi, _ -> List.rev (id :: acc)
    | _, l -> fail l "expected ',' or ';' in declaration"
  in
  go []

let parse_connection cur =
  (* '(' already consumed *)
  match peek cur with
  | Some (Dot, _) ->
    let rec named acc =
      expect_tok cur "'.'" Dot;
      let port = expect_ident cur in
      expect_tok cur "'('" Lparen;
      let net = expect_ident cur in
      expect_tok cur "')'" Rparen;
      match advance cur with
      | Comma, _ -> named ((port, net) :: acc)
      | Rparen, _ -> Named (List.rev ((port, net) :: acc))
      | _, l -> fail l "expected ',' or ')' in connection list"
    in
    named []
  | Some (Rparen, _) ->
    ignore (advance cur);
    Positional []
  | _ ->
    let rec positional acc =
      let net = expect_ident cur in
      match advance cur with
      | Comma, _ -> positional (net :: acc)
      | Rparen, _ -> Positional (List.rev (net :: acc))
      | _, l -> fail l "expected ',' or ')' in connection list"
    in
    positional []

let parse_string text =
  let cur = { toks = tokenize text } in
  expect_tok cur "'module'" Kw_module;
  let name = expect_ident cur in
  expect_tok cur "'('" Lparen;
  let ports =
    match peek cur with
    | Some (Rparen, _) ->
      ignore (advance cur);
      expect_tok cur "';'" Semi;
      []
    | _ ->
      let rec go acc =
        let id = expect_ident cur in
        match advance cur with
        | Comma, _ -> go (id :: acc)
        | Rparen, _ ->
          expect_tok cur "';'" Semi;
          List.rev (id :: acc)
        | _, l -> fail l "expected ',' or ')' in port list"
      in
      go []
  in
  let inputs = ref [] and outputs = ref [] and wires = ref [] in
  let instances = ref [] in
  let rec body () =
    match advance cur with
    | Kw_endmodule, _ -> ()
    | Kw_input, _ ->
      inputs := !inputs @ ident_list cur;
      body ()
    | Kw_output, _ ->
      outputs := !outputs @ ident_list cur;
      body ()
    | Kw_wire, _ ->
      wires := !wires @ ident_list cur;
      body ()
    | Ident cell, _ ->
      let inst_name = expect_ident cur in
      expect_tok cur "'('" Lparen;
      let connection = parse_connection cur in
      expect_tok cur "';'" Semi;
      instances := { cell; inst_name; connection } :: !instances;
      body ()
    | _, l -> fail l "expected declaration, instantiation or 'endmodule'"
  in
  body ();
  {
    name;
    ports;
    inputs = !inputs;
    outputs = !outputs;
    wires = !wires;
    instances = List.rev !instances;
  }

(* ---------- printer ---------- *)

let to_string t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "module %s (%s);\n" t.name (String.concat ", " t.ports);
  let decl kw = function
    | [] -> ()
    | nets -> pf "  %s %s;\n" kw (String.concat ", " nets)
  in
  decl "input" t.inputs;
  decl "output" t.outputs;
  decl "wire" t.wires;
  List.iter
    (fun inst ->
      let conn =
        match inst.connection with
        | Named pairs ->
          String.concat ", "
            (List.map (fun (p, net) -> Printf.sprintf ".%s(%s)" p net) pairs)
        | Positional nets -> String.concat ", " nets
      in
      pf "  %s %s (%s);\n" inst.cell inst.inst_name conn)
    t.instances;
  pf "endmodule\n";
  Buffer.contents buf

(* ---------- lowering ---------- *)

let output_port_names = [ "Z"; "ZN"; "Y"; "Q" ]

let split_connection ~line_ctx inst =
  match inst.connection with
  | Positional [] ->
    invalid_arg (line_ctx ^ ": instance with no connections")
  | Positional (out :: ins) -> (out, ins)
  | Named pairs ->
    let outs, ins =
      List.partition (fun (p, _) -> List.mem p output_port_names) pairs
    in
    (match outs with
    | [ (_, out) ] ->
      let ins =
        List.sort (fun (p1, _) (p2, _) -> compare p1 p2) ins
        |> List.map snd
      in
      (out, ins)
    | [] -> invalid_arg (line_ctx ^ ": no output port (Z/ZN/Y/Q)")
    | _ -> invalid_arg (line_ctx ^ ": multiple output ports"))

let is_sequential cell_name =
  let starts prefix =
    String.length cell_name >= String.length prefix
    && String.sub cell_name 0 (String.length prefix) = prefix
  in
  starts "DFF" || starts "SDFF" || starts "DLATCH"

let to_netlist t =
  let instances = Array.of_list t.instances in
  let parsed =
    Array.map
      (fun inst ->
        let ctx = Printf.sprintf "instance %s" inst.inst_name in
        (try ignore (Library.index_of inst.cell)
         with Not_found ->
           invalid_arg (Printf.sprintf "%s: unknown cell %s" ctx inst.cell));
        let out, ins = split_connection ~line_ctx:ctx inst in
        (inst, out, ins))
      instances
  in
  let driver_of = Hashtbl.create 64 in
  Array.iteri (fun i (_, out, _) -> Hashtbl.replace driver_of out i) parsed;
  let input_nets = Hashtbl.create 16 in
  List.iter (fun net -> Hashtbl.replace input_nets net ()) t.inputs;
  (* validate net usage *)
  Array.iter
    (fun ((inst : instance), _, ins) ->
      List.iter
        (fun net ->
          if
            (not (Hashtbl.mem driver_of net))
            && not (Hashtbl.mem input_nets net)
          then
            invalid_arg
              (Printf.sprintf "instance %s reads undriven net %s"
                 inst.inst_name net))
        ins)
    parsed;
  (* topological emission with sequential cuts, mirroring Techmap.map *)
  let n = Array.length parsed in
  let emitted = Array.make n false in
  let on_stack = Array.make n false in
  let order = ref [] in
  let rec visit i =
    if not emitted.(i) then begin
      if on_stack.(i) then invalid_arg "Verilog.to_netlist: combinational cycle";
      on_stack.(i) <- true;
      let inst, _, ins = parsed.(i) in
      if not (is_sequential inst.cell) then
        List.iter
          (fun net ->
            match Hashtbl.find_opt driver_of net with
            | Some j -> visit j
            | None -> ())
          ins;
      on_stack.(i) <- false;
      if not emitted.(i) then begin
        emitted.(i) <- true;
        order := i :: !order
      end
    end
  in
  for i = 0 to n - 1 do
    visit i
  done;
  let order = Array.of_list (List.rev !order) in
  let new_id = Array.make n (-1) in
  Array.iteri (fun pos old -> new_id.(old) <- pos) order;
  let id_of_net = Hashtbl.create 64 in
  Array.iteri
    (fun pos old ->
      let _, out, _ = parsed.(old) in
      Hashtbl.replace id_of_net out pos)
    order;
  let netlist_instances =
    Array.mapi
      (fun pos old ->
        let inst, _, ins = parsed.(old) in
        let fanin =
          Array.of_list
            (List.map
               (fun net ->
                 match Hashtbl.find_opt id_of_net net with
                 | Some id when id < pos -> id
                 | Some _ -> -1 (* sequential cut *)
                 | None -> -1)
               ins)
        in
        {
          Netlist.id = pos;
          cell_index = Library.index_of inst.cell;
          fanin;
        })
      order
  in
  Netlist.create ~name:t.name
    ~num_primary_inputs:(Stdlib.max 1 (List.length t.inputs))
    netlist_instances

let of_netlist (netlist : Netlist.t) =
  let n = Netlist.size netlist in
  let num_pi = Stdlib.max 1 netlist.Netlist.num_primary_inputs in
  let pi_name k = Printf.sprintf "pi%d" k in
  let net_name id = Printf.sprintf "n%d" id in
  let port_letter k = String.make 1 (Char.chr (Char.code 'A' + k)) in
  let driven = Array.make n false in
  Array.iter
    (fun inst ->
      Array.iter (fun f -> if f >= 0 then driven.(f) <- true) inst.Netlist.fanin)
    netlist.Netlist.instances;
  let instances =
    Array.to_list
      (Array.map
         (fun inst ->
           let ins =
             Array.to_list
               (Array.mapi
                  (fun port driver ->
                    let net =
                      if driver >= 0 then net_name driver
                      else pi_name ((inst.Netlist.id + port) mod num_pi)
                    in
                    (port_letter port, net))
                  inst.Netlist.fanin)
           in
           {
             cell = Library.cells.(inst.Netlist.cell_index).Cell.name;
             inst_name = Printf.sprintf "u%d" inst.Netlist.id;
             connection = Named (("Z", net_name inst.Netlist.id) :: ins);
           })
         netlist.Netlist.instances)
  in
  let inputs = List.init num_pi pi_name in
  let outputs =
    List.filter_map
      (fun id -> if driven.(id) then None else Some (net_name id))
      (List.init n Fun.id)
  in
  let wires =
    List.filter_map
      (fun id -> if driven.(id) then Some (net_name id) else None)
      (List.init n Fun.id)
  in
  {
    name = netlist.Netlist.name;
    ports = inputs @ outputs;
    inputs;
    outputs;
    wires;
    instances;
  }
