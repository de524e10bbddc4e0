module Guard = Rgleak_num.Guard
module Obs = Rgleak_obs.Obs

let () =
  Obs.declare_hist ~owner:"cache" "cache.get_s";
  Obs.declare_hist ~owner:"cache" "cache.put_s"

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  put_errors : int;
  bytes_read : int;
  bytes_written : int;
  evictions : int;
  bytes_evicted : int;
}

(* LRU index entry: on-disk size and a monotone recency stamp (larger =
   hotter).  Only maintained when the handle has a size cap. *)
type indexed = { mutable i_bytes : int; mutable i_seq : int }

type t = {
  root : string;
  on_corrupt : Guard.diagnostic -> unit;
  cap_bytes : int option;
  index : (string, indexed) Hashtbl.t;  (* entry path -> size/recency *)
  mutable total : int;  (* sum of indexed sizes *)
  mutable seq : int;  (* recency clock *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_corrupt : int;
  mutable n_put_errors : int;
  mutable n_bytes_read : int;
  mutable n_bytes_written : int;
  mutable n_evictions : int;
  mutable n_bytes_evicted : int;
}

let default_dir () =
  match Sys.getenv_opt "RGLEAK_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "rgleak"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some d when d <> "" ->
        Filename.concat (Filename.concat d ".cache") "rgleak"
      | _ -> "_rgleak_cache"))

(* Seed the LRU index from the entries already on disk, ordering their
   initial recency by mtime (hits bump the mtime best-effort, so the
   ordering approximately survives restarts). *)
let scan_entries root =
  let found = ref [] in
  let dirents d = try Sys.readdir d with Sys_error _ -> [||] in
  Array.iter
    (fun kind ->
      let kdir = Filename.concat root kind in
      if (try Sys.is_directory kdir with Sys_error _ -> false) then
        Array.iter
          (fun shard ->
            let sdir = Filename.concat kdir shard in
            if (try Sys.is_directory sdir with Sys_error _ -> false) then
              Array.iter
                (fun name ->
                  if Filename.check_suffix name ".rgc" then
                    let path = Filename.concat sdir name in
                    match Unix.stat path with
                    | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                      found := (path, st_size, st_mtime) :: !found
                    | _ | (exception Unix.Unix_error _) -> ())
                (dirents sdir))
          (dirents kdir))
    (dirents root);
  List.sort (fun (_, _, a) (_, _, b) -> compare a b) !found

let open_ ?(on_corrupt = fun _ -> ()) ?cap_bytes ~dir () =
  let t =
    {
      root = dir;
      on_corrupt;
      cap_bytes;
      index = Hashtbl.create 64;
      total = 0;
      seq = 0;
      n_hits = 0;
      n_misses = 0;
      n_corrupt = 0;
      n_put_errors = 0;
      n_bytes_read = 0;
      n_bytes_written = 0;
      n_evictions = 0;
      n_bytes_evicted = 0;
    }
  in
  if cap_bytes <> None then
    List.iter
      (fun (path, bytes, _) ->
        t.seq <- t.seq + 1;
        Hashtbl.replace t.index path { i_bytes = bytes; i_seq = t.seq };
        t.total <- t.total + bytes)
      (scan_entries dir);
  t

let dir t = t.root

let total_bytes t = t.total

let capped t = t.cap_bytes <> None

let index_forget t path =
  match Hashtbl.find_opt t.index path with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.index path;
    t.total <- t.total - e.i_bytes

let index_touch t path =
  match Hashtbl.find_opt t.index path with
  | None -> ()
  | Some e ->
    t.seq <- t.seq + 1;
    e.i_seq <- t.seq;
    (* Best-effort mtime bump so LRU order survives a restart. *)
    (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ())

let index_insert t path bytes =
  index_forget t path;
  t.seq <- t.seq + 1;
  Hashtbl.replace t.index path { i_bytes = bytes; i_seq = t.seq };
  t.total <- t.total + bytes

(* Evict coldest-first until the cap fits; [keep] (the entry just
   written) is exempt so one oversized payload cannot evict itself. *)
let evict_to_cap t ~keep =
  match t.cap_bytes with
  | None -> ()
  | Some cap ->
    let rec loop () =
      if t.total > cap then begin
        let victim = ref None in
        Hashtbl.iter
          (fun path e ->
            if path <> keep then
              match !victim with
              | Some (_, v) when v.i_seq <= e.i_seq -> ()
              | _ -> victim := Some (path, e))
          t.index;
        match !victim with
        | None -> ()
        | Some (path, e) ->
          (try Sys.remove path with Sys_error _ -> ());
          Hashtbl.remove t.index path;
          t.total <- t.total - e.i_bytes;
          t.n_evictions <- t.n_evictions + 1;
          t.n_bytes_evicted <- t.n_bytes_evicted + e.i_bytes;
          Obs.count "cache.evictions" 1;
          Obs.count "cache.bytes_evicted" e.i_bytes;
          loop ()
      end
    in
    loop ()

(* Length-prefixed concatenation makes part boundaries unambiguous, so
   the key is a pure function of the part *list*, not of the joined
   text.  MD5 (Stdlib Digest) is stable across restarts and platforms;
   this is an integrity/addressing hash, not a security boundary. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let header_magic = "rgleak-cache/1"

let entry_path t ~kind ~version ~key =
  let shard = String.sub key 0 2 in
  List.fold_left Filename.concat t.root
    [ Printf.sprintf "%s-v%d" kind version; shard; key ^ ".rgc" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let record_hit t n =
  t.n_hits <- t.n_hits + 1;
  t.n_bytes_read <- t.n_bytes_read + n;
  Obs.count "cache.hits" 1;
  Obs.count "cache.bytes_read" n;
  (* Cumulative running total as a timeline track: renders as a
     monotone staircase in the Chrome trace. *)
  Obs.track "cache.hits" (float_of_int t.n_hits)

let record_miss t =
  t.n_misses <- t.n_misses + 1;
  Obs.count "cache.misses" 1;
  Obs.track "cache.misses" (float_of_int t.n_misses)

let record_corrupt t ~path detail =
  t.n_corrupt <- t.n_corrupt + 1;
  Obs.count "cache.corrupt" 1;
  (try Sys.remove path with Sys_error _ -> ());
  index_forget t path;
  t.on_corrupt
    (Guard.Invalid_input
       (Printf.sprintf "corrupt cache entry %s (%s); recomputing" path detail))

(* Entry layout: one header line, then the raw payload.
     rgleak-cache/1 <kind> <version> <payload-bytes> <payload-md5>\n
   The digest covers the payload only; kind/version in the header catch
   a file renamed or copied across namespaces. *)
let parse_entry ~kind ~version contents =
  match String.index_opt contents '\n' with
  | None -> Error "no header line"
  | Some nl -> (
    let header = String.sub contents 0 nl in
    let payload =
      String.sub contents (nl + 1) (String.length contents - nl - 1)
    in
    match String.split_on_char ' ' header with
    | [ magic; k; v; bytes; md5 ] ->
      if magic <> header_magic then Error "bad magic"
      else if k <> kind then Error (Printf.sprintf "kind %S, want %S" k kind)
      else if v <> string_of_int version then
        Error (Printf.sprintf "version %s, want %d" v version)
      else if int_of_string_opt bytes <> Some (String.length payload) then
        Error "payload length mismatch (truncated or overwritten)"
      else if Digest.to_hex (Digest.string payload) <> md5 then
        Error "payload digest mismatch"
      else Ok payload
    | _ -> Error "malformed header")

(* The integrity-checked payload; [Error None] is a plain miss. *)
let read_entry ~path ~kind ~version =
  Obs.hist_time "cache.get_s" @@ fun () ->
  match read_file path with
  | exception Sys_error _ -> Error None
  | _ when Guard.Fault.fire "cache" -> Error (Some "injected fault")
  | contents ->
    Result.map_error Option.some (parse_entry ~kind ~version contents)

let find t ~kind ~version ~key decode =
  let path = entry_path t ~kind ~version ~key in
  let decoded =
    Result.bind (read_entry ~path ~kind ~version) (fun payload ->
        (* Take the length first: the decoder may let the payload die. *)
        let bytes = String.length payload in
        match decode payload with
        | v -> Ok (v, bytes)
        | exception ((Out_of_memory | Sys.Break) as e) -> raise e
        | exception e ->
          Error (Some ("payload does not decode: " ^ Printexc.to_string e)))
  in
  match decoded with
  | Ok (v, bytes) ->
    record_hit t bytes;
    if capped t then index_touch t path;
    Some v
  | Error detail ->
    Option.iter (record_corrupt t ~path) detail;
    record_miss t;
    None

let get t ~kind ~version ~key = find t ~kind ~version ~key Fun.id

let put t ~kind ~version ~key payload =
  Obs.hist_time "cache.put_s" @@ fun () ->
  let path = entry_path t ~kind ~version ~key in
  try
    mkdir_p (Filename.dirname path);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Hashtbl.hash key)
    in
    let oc = open_out_bin tmp in
    (try
       Printf.fprintf oc "%s %s %d %d %s\n" header_magic kind version
         (String.length payload)
         (Digest.to_hex (Digest.string payload));
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path;
    t.n_bytes_written <- t.n_bytes_written + String.length payload;
    Obs.count "cache.bytes_written" (String.length payload);
    if capped t then begin
      let size =
        try (Unix.stat path).Unix.st_size
        with Unix.Unix_error _ -> String.length payload
      in
      index_insert t path size;
      evict_to_cap t ~keep:path
    end
  with Sys_error _ | Unix.Unix_error _ ->
    t.n_put_errors <- t.n_put_errors + 1;
    Obs.count "cache.put_errors" 1

let stats t =
  {
    hits = t.n_hits;
    misses = t.n_misses;
    corrupt = t.n_corrupt;
    put_errors = t.n_put_errors;
    bytes_read = t.n_bytes_read;
    bytes_written = t.n_bytes_written;
    evictions = t.n_evictions;
    bytes_evicted = t.n_bytes_evicted;
  }

let reset_stats t =
  t.n_hits <- 0;
  t.n_misses <- 0;
  t.n_corrupt <- 0;
  t.n_put_errors <- 0;
  t.n_bytes_read <- 0;
  t.n_bytes_written <- 0;
  t.n_evictions <- 0;
  t.n_bytes_evicted <- 0
