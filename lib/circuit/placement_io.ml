exception Format_error of string

type t = {
  width : float;
  height : float;
  positions : (float * float) array;
}

let magic = "rgleak-placement"
let version = 1

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" magic version);
  Buffer.add_string buf (Printf.sprintf "die %.17g %.17g\n" t.width t.height);
  Array.iteri
    (fun id (x, y) ->
      Buffer.add_string buf (Printf.sprintf "%d %.17g %.17g\n" id x y))
    t.positions;
  Buffer.contents buf

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun s -> String.trim s <> "")
  in
  match lines with
  | header :: die :: rest ->
    (match String.split_on_char ' ' header with
    | [ m; v ] when m = magic && v = string_of_int version -> ()
    | _ -> raise (Format_error "bad header"));
    let width, height =
      match String.split_on_char ' ' die with
      | [ "die"; w; h ] -> (
        match (float_of_string_opt w, float_of_string_opt h) with
        | Some w, Some h when w > 0.0 && h > 0.0 -> (w, h)
        | _ -> raise (Format_error "bad die dimensions"))
      | _ -> raise (Format_error "expected die line")
    in
    let entries =
      List.map
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ id; x; y ] -> (
            match
              (int_of_string_opt id, float_of_string_opt x, float_of_string_opt y)
            with
            | Some id, Some x, Some y -> (id, x, y)
            | _ -> raise (Format_error ("bad position line: " ^ line)))
          | _ -> raise (Format_error ("bad position line: " ^ line)))
        rest
    in
    let n = List.length entries in
    let positions = Array.make n (0.0, 0.0) in
    let seen = Array.make n false in
    List.iter
      (fun (id, x, y) ->
        if id < 0 || id >= n then raise (Format_error "instance id out of range");
        if seen.(id) then raise (Format_error "duplicate instance id");
        seen.(id) <- true;
        positions.(id) <- (x, y))
      entries;
    { width; height; positions }
  | _ -> raise (Format_error "truncated placement file")

let of_placed placed =
  let n = Netlist.size placed.Placer.netlist in
  {
    width = Layout.width placed.Placer.layout;
    height = Layout.height placed.Placer.layout;
    positions = Array.init n (Placer.location placed);
  }

let apply netlist t =
  let n = Netlist.size netlist in
  if Array.length t.positions <> n then
    invalid_arg "Placement_io.apply: instance count mismatch";
  let layout = Layout.of_dims ~n ~width:t.width ~height:t.height in
  if Layout.site_count layout < n then
    invalid_arg "Placement_io.apply: die too small for the netlist";
  let cols = layout.Layout.cols in
  let rows = Layout.rows layout in
  let taken = Array.make (Layout.site_count layout) false in
  let site_of = Array.make n (-1) in
  let site_w = layout.Layout.site_w and site_h = layout.Layout.site_h in
  Array.iteri
    (fun id (x, y) ->
      let ix0 =
        Stdlib.max 0 (Stdlib.min (cols - 1) (int_of_float (x /. site_w)))
      in
      let iy0 =
        Stdlib.max 0 (Stdlib.min (rows - 1) (int_of_float (y /. site_h)))
      in
      (* spiral outward over ring offsets until a free site is found *)
      let best = ref (-1) in
      let radius = ref 0 in
      while !best < 0 do
        let r = !radius in
        (* scan the ring at Chebyshev distance r, keeping the nearest
           free site by Euclidean metric *)
        let best_d = ref infinity in
        for dy = -r to r do
          for dx = -r to r do
            if Stdlib.max (abs dx) (abs dy) = r then begin
              let ix = ix0 + dx and iy = iy0 + dy in
              if ix >= 0 && ix < cols && iy >= 0 && iy < rows then begin
                let site = (iy * cols) + ix in
                if site < Layout.site_count layout && not taken.(site) then begin
                  let sx, sy = Layout.position layout site in
                  let d = ((sx -. x) ** 2.0) +. ((sy -. y) ** 2.0) in
                  if d < !best_d then begin
                    best_d := d;
                    best := site
                  end
                end
              end
            end
          done
        done;
        incr radius;
        if !radius > cols + rows then
          invalid_arg "Placement_io.apply: no free site found"
      done;
      taken.(!best) <- true;
      site_of.(id) <- !best)
    t.positions;
  { Placer.netlist; layout; site_of_instance = site_of }

let max_snap_distance placed t =
  let n = Netlist.size placed.Placer.netlist in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let sx, sy = Placer.location placed i in
    let x, y = t.positions.(i) in
    worst := Float.max !worst (sqrt (((sx -. x) ** 2.0) +. ((sy -. y) ** 2.0)))
  done;
  !worst
