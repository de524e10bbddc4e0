module Characterize = Rgleak_cells.Characterize
module Char_io = Rgleak_cells.Char_io
module Library = Rgleak_cells.Library
module Cell = Rgleak_cells.Cell
module Process_param = Rgleak_process.Process_param
module Mosfet = Rgleak_device.Mosfet
module Rg_correlation = Rgleak_core.Rg_correlation
module Estimator_linear = Rgleak_core.Estimator_linear

(* Kind versions: bump when the payload format or the semantics of the
   computation behind a kind change, so stale entries self-invalidate. *)
let chars_version = 1
let rgcorr_version = 1
let linmemo_version = 1
let deltacov_version = 1

let library_fingerprint =
  let fp = lazy (
    let b = Buffer.create 1024 in
    Array.iter
      (fun (c : Cell.t) ->
        Buffer.add_string b
          (Printf.sprintf "%s/%d/%d;" c.Cell.name c.Cell.num_inputs
             (Cell.device_count c)))
      Library.cells;
    Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  fun () -> Lazy.force fp

let param_part (p : Process_param.t) =
  Printf.sprintf "param=%s:%h:%h:%h" p.Process_param.name
    p.Process_param.nominal p.Process_param.sigma_d2d
    p.Process_param.sigma_wid

(* Canonical record of the settings `characterization` below actually
   uses (Characterize defaults + seed).  If those defaults ever change,
   this literal — or chars_version — must change with them. *)
let chars_settings = "l_points=97;span=6;mc=20000;seed=1729;vdd=default"

let chars_key_parts ~temp_celsius =
  [
    "lib=" ^ library_fingerprint ();
    param_part Process_param.default_channel_length;
    chars_settings;
    (match temp_celsius with
    | None -> "temp=default"
    | Some t -> Printf.sprintf "temp=%h" t);
  ]

let compute_characterization ?jobs ~temp_celsius () =
  match temp_celsius with
  | None -> Characterize.default_library ()
  | Some t ->
    let env = Mosfet.env_at ~temp_k:(273.15 +. t) () in
    Characterize.characterize_library ?jobs ~env
      ~param:Process_param.default_channel_length ~seed:1729 ()

(* The one get-or-compute path: an entry that [Cache.find] reads and
   [decode]s is a hit; on anything else the value is computed, stored
   and returned.  [key] is a thunk so uncached callers never pay for
   the key parts. *)
let cached cache ~kind ~version ~key ~encode ~decode compute =
  match cache with
  | None -> compute ()
  | Some c -> (
    let key = Cache.key (key ()) in
    match Cache.find c ~kind ~version ~key decode with
    | Some v -> v
    | None ->
      let v = compute () in
      Cache.put c ~kind ~version ~key (encode v);
      v)

let characterization ?cache ?jobs ~temp_celsius () =
  cached cache ~kind:"chars" ~version:chars_version
    ~key:(fun () -> chars_key_parts ~temp_celsius)
    ~encode:Char_io.to_string ~decode:Char_io.of_string
    (compute_characterization ?jobs ~temp_celsius)

(* The rgcorr, linmemo and deltacov payloads share one line-oriented
   layout: a header line [rgleak-<kind> 1], one line of space-separated
   words per field, then [end].  Floats are hex literals ([%h]), so a
   reload replays the exact bits of the cold run. *)

let hex x = Printf.sprintf "%h" x
let hexes xs = Array.to_list (Array.map hex xs)

let render kind fill =
  let b = Buffer.create 4096 in
  let line words =
    Buffer.add_string b (String.concat " " words);
    Buffer.add_char b '\n'
  in
  line [ "rgleak-" ^ kind; "1" ];
  fill line;
  line [ "end" ];
  Buffer.contents b

let fail fmt = Printf.ksprintf failwith fmt

let num parse w = match parse w with Some x -> x | None -> fail "bad %S" w
let int_of = num int_of_string_opt
let float_of = num float_of_string_opt

let floats_of n ws =
  if List.length ws <> n then fail "want %d floats" n;
  Array.of_list (List.map float_of ws)

(* The reader mirrors [render]: [read] pulls the words of one line at a
   time and decodes them straight into its target, so no more than one
   line is ever split.  Any malformed input raises, which [Cache.find]
   treats as a corrupt entry. *)
let parse kind read payload =
  let len = String.length payload and pos = ref 0 in
  let next () =
    if !pos >= len then fail "%s payload truncated" kind;
    let stop =
      Option.value (String.index_from_opt payload !pos '\n') ~default:len
    in
    let line = String.sub payload !pos (stop - !pos) in
    pos := stop + 1;
    String.split_on_char ' ' line
  in
  if next () <> [ "rgleak-" ^ kind; "1" ] then fail "bad %s header" kind;
  let v = read next in
  if next () <> [ "end" ] || !pos < len then fail "%s payload not ended" kind;
  v

(* The words after [name] on the next line. *)
let field next name =
  match next () with
  | w :: rest when w = name -> rest
  | _ -> fail "expected %s" name

let one = function [ w ] -> w | _ -> fail "want one word"

(* Correlation tables:
     mapping exact|simplified
     points <p>
     sigma_bar <%h>
     support <k> <i0> ... <ik-1>
     f <%h>{p}
     pair <si> <sj> <%h>{p}     (k*k lines, row-major) *)

let render_tables
    { Rg_correlation.t_mapping; t_points; t_support_cells; t_f_table;
      t_pair_tables; t_sigma_bar } =
  render "rgcorr" @@ fun line ->
  line
    [
      "mapping";
      (match t_mapping with
      | Rg_correlation.Exact -> "exact"
      | Rg_correlation.Simplified -> "simplified");
    ];
  line [ "points"; string_of_int t_points ];
  line [ "sigma_bar"; hex t_sigma_bar ];
  let ns = Array.length t_support_cells in
  line
    ("support" :: List.map string_of_int (ns :: Array.to_list t_support_cells));
  line ("f" :: hexes t_f_table);
  Array.iteri
    (fun i tbl ->
      line ("pair" :: string_of_int (i / ns) :: string_of_int (i mod ns)
            :: hexes tbl))
    t_pair_tables

let read_tables next : Rg_correlation.tables =
  let t_mapping =
    match one (field next "mapping") with
    | "exact" -> Rg_correlation.Exact
    | "simplified" -> Rg_correlation.Simplified
    | mp -> fail "bad mapping %S" mp
  in
  let t_points = int_of (one (field next "points")) in
  let t_sigma_bar = float_of (one (field next "sigma_bar")) in
  let t_support_cells =
    match field next "support" with
    | k :: cells when List.length cells = int_of k ->
      Array.of_list (List.map int_of cells)
    | _ -> fail "bad support line"
  in
  let t_f_table = floats_of t_points (field next "f") in
  let ns = Array.length t_support_cells in
  let t_pair_tables =
    Array.init (ns * ns) (fun idx ->
        match field next "pair" with
        | si :: sj :: xs when int_of si = idx / ns && int_of sj = idx mod ns ->
          floats_of t_points xs
        | _ -> fail "pair table %d out of order" idx)
  in
  { Rg_correlation.t_mapping; t_points; t_support_cells; t_f_table;
    t_pair_tables; t_sigma_bar }

let correlation ?cache ?mapping ~chars ~rg ~p ~key_parts () =
  cached cache ~kind:"rgcorr" ~version:rgcorr_version
    ~key:(fun () -> "rgcorr" :: key_parts)
    ~encode:(fun rgcorr -> render_tables (Rg_correlation.tables rgcorr))
    ~decode:(fun payload ->
      Rg_correlation.of_tables ~rg (parse "rgcorr" read_tables payload))
    (fun () -> Rg_correlation.create ?mapping ~chars ~rg ~p ())

(* Delta covariance tables: the packed per-(type-pair, distance-bin)
   f_{m,n}(ρ) bigarray the delta estimator stages once per chip.  Hex
   floats keep the delta battery's bitwise guarantees across cache hits.
     dim <len>
     <%h>                        (len lines, bin-major packed order)

   The key combines the correlation structure's own table fingerprint
   (every float the tables derive from), the binning geometry, the used
   cell set, and caller key parts naming the spatial model — the full
   input closure of [binned_pair_tables]. *)

let delta_tables ?cache ~corr ~rgcorr ~used ~distance_points ~dstep ~key_parts
    () =
  let len = Rgleak_num.Parallel.tri_size (Array.length used) * distance_points
  in
  let read next =
    if int_of (one (field next "dim")) <> len then fail "deltacov dim mismatch";
    let cov = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set cov i (float_of (one (next ())))
    done;
    cov
  in
  cached cache ~kind:"deltacov" ~version:deltacov_version
    ~key:(fun () ->
      "deltacov"
      :: ("tables=" ^ Rg_correlation.table_fingerprint rgcorr)
      :: Printf.sprintf "points=%d" distance_points
      :: Printf.sprintf "dstep=%h" dstep
      :: ("used="
         ^ String.concat "," (Array.to_list (Array.map string_of_int used)))
      :: key_parts)
    ~encode:(fun cov ->
      render "deltacov" @@ fun line ->
      let dim = Bigarray.Array1.dim cov in
      line [ "dim"; string_of_int dim ];
      for i = 0 to dim - 1 do
        line [ hex (Bigarray.Array1.unsafe_get cov i) ]
      done)
    ~decode:(parse "deltacov" read)
    (fun () ->
      Rg_correlation.binned_pair_tables rgcorr ~used ~distance_points ~dstep
        ~rho_of_d:(fun d -> Rgleak_process.Corr_model.total corr d))

(* Linear F memo: sparse (offset index, value) pairs.
     shape <rows> <cols>
     count <k>
     <idx> <%h>                  (k lines, increasing idx)

   The memo is mutable, so unlike [cached] it is stored only after the
   continuation returns normally: a poisoned run never persists. *)

let with_linear_memo ?cache ~key_parts ~rows ~cols f =
  let fresh () = Estimator_linear.memo_create ~rows ~cols in
  match cache with
  | None -> f (fresh ())
  | Some c -> (
    let kind = "linmemo" and version = linmemo_version in
    let key =
      Cache.key (kind :: Printf.sprintf "shape=%dx%d" rows cols :: key_parts)
    in
    let read next =
      if field next "shape" <> [ string_of_int rows; string_of_int cols ] then
        fail "linmemo shape mismatch";
      let memo = fresh () in
      for _ = 1 to int_of (one (field next "count")) do
        match next () with
        | [ idx; v ] ->
          Estimator_linear.memo_set memo ~idx:(int_of idx) ~value:(float_of v)
        | _ -> fail "bad linmemo entry"
      done;
      memo
    in
    match Cache.find c ~kind ~version ~key (parse kind read) with
    | Some memo -> f memo
    | None ->
      let memo = fresh () in
      let r = f memo in
      let entries = Estimator_linear.memo_to_list memo in
      Cache.put c ~kind ~version ~key
        (render kind @@ fun line ->
         line [ "shape"; string_of_int rows; string_of_int cols ];
         line [ "count"; string_of_int (List.length entries) ];
         List.iter (fun (idx, v) -> line [ string_of_int idx; hex v ]) entries);
      r)
