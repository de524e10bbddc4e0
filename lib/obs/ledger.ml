(* Persistent run ledger: one compact JSON line per CLI run, appended
   with O_APPEND so concurrent writers interleave whole lines.  The
   reader side (Rgleak_valid.Report) re-aggregates histograms exactly
   from the sparse bucket counts carried here. *)

let schema = "rgleak-run/1"
let default_path = ".rgleak/ledger.jsonl"

let args_digest args =
  (* Length-safe canonical form: arguments joined on NUL can never
     collide across different splits. *)
  Digest.to_hex (Digest.string (String.concat "\x00" args))

let line ~subcommand ~args ~exit_class ?(t = 0.0) (s : Obs.snapshot) =
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("t", Json.Num t);
          ("subcommand", Json.Str subcommand);
          ("args_digest", Json.Str (args_digest args));
          ("metrics_schema", Json.Str "rgleak-metrics/2");
          ("exit_class", Json.Str exit_class);
        ]
       @ Export.snapshot_fields s))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append ~path line =
  try
    mkdir_p (Filename.dirname path);
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* One write call for the whole record: O_APPEND makes the
           (offset choice + write) atomic, so concurrently appending
           processes can never interleave within a line. *)
        let data = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length data in
        let n = Unix.write fd data 0 len in
        if n <> len then Error (Printf.sprintf "short write to %s" path)
        else Ok ())
  with
  | Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | Sys_error msg -> Error msg
