(* Expect-style CLI tests: spawn the real rgleak binary and assert the
   per-diagnostic-class exit codes (0 success, 2 invalid input, 3
   numeric breakdown), the best-effort tier degradation, and the
   determinism of fault-injected runs.  Kept out of the main suite so
   its process spawns do not interleave with the in-process tests. *)

let rgleak = "../bin/rgleak.exe"

let run ?(out = "/dev/null") ?(err = "/dev/null") args =
  let cmd =
    Printf.sprintf "%s > %s 2> %s"
      (Filename.quote_command rgleak args)
      (Filename.quote out) (Filename.quote err)
  in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s -> Alcotest.failf "rgleak killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "rgleak stopped by signal %d" s

let check_exit name expected args =
  Alcotest.(check int) name expected (run args)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* invalid input exits 2, before any expensive characterization *)
let test_invalid_input () =
  check_exit "malformed mix" 2 [ "estimate"; "-n"; "500"; "--mix"; "INV_X1" ];
  check_exit "malformed correlation" 2
    [ "estimate"; "-n"; "500"; "--corr"; "spherical" ];
  check_exit "unknown fault site" 2
    [ "estimate"; "-n"; "500"; "--fault-spec"; "nosuch:1:1" ];
  check_exit "out-of-range fault probability" 2
    [ "estimate"; "-n"; "500"; "--fault-spec"; "cholesky:2:1" ];
  check_exit "conflicting signoff sources" 2
    [ "signoff"; "--benchmark"; "c432"; "--bench-file"; "x.bench" ];
  check_exit "unknown cell" 2 [ "characterize"; "--cell"; "NOPE" ];
  check_exit "unwritable output path" 2
    [ "convert"; "--benchmark"; "c432"; "--output"; "/nonexistent/x.bench" ];
  (* Design flags go through the manifest parser, so they fail the way a
     manifest line does: early, and as invalid input. *)
  List.iter
    (fun (cmd, extra) ->
      check_exit ("unknown mix cell, " ^ cmd) 2
        ((cmd :: "-n" :: "100" :: extra) @ [ "--mix"; "FOO_X1:3" ]))
    [
      ("estimate", []);
      ("tail", [ "--budget"; "1" ]);
      ("optimize", [ "--budget"; "1" ]);
      ("yield", []);
    ];
  check_exit "negative correlation distance" 2
    [ "estimate"; "-n"; "500"; "--corr"; "linear:-5" ];
  check_exit "width without height" 2
    [ "estimate"; "-n"; "500"; "--width"; "100" ];
  check_exit "signal probability above one" 2
    [ "estimate"; "-n"; "500"; "-p"; "1.5" ];
  check_exit "tail shift beyond 30 nm" 2
    [ "tail"; "-n"; "100"; "--budget"; "1"; "--shift"; "31" ];
  check_exit "unwritable validate report" 2
    [ "validate"; "--sweep"; "quick"; "--json"; "/nonexistent/v.json" ];
  check_exit "unwritable characterization" 2
    [ "characterize"; "--save"; "/nonexistent/c.txt" ];
  (* Early flags fail before any work, worded for the flag. *)
  let err = Filename.temp_file "rgleak_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      List.iter
        (fun (name, args, want) ->
          Alcotest.(check int) name 2 (run ~err args);
          let stderr = read_file err in
          if not (contains stderr want) then
            Alcotest.failf "%s: want %S in %S" name want stderr)
        [
          ( "signoff p above one",
            [ "signoff"; "--benchmark"; "c432"; "-p"; "1.5" ],
            "invalid input: p must be in [0, 1]" );
          ( "unknown method",
            [ "estimate"; "-n"; "500"; "--method"; "bogus" ],
            "(want auto, linear, int2d or polar)" );
          ( "tail is no method",
            [ "estimate"; "-n"; "500"; "--method"; "tail" ],
            "unknown method \"tail\" (want auto, linear, int2d or polar)" );
        ]);
  (* A NaN range is rejected while parsing, not by a tier breaking down. *)
  let err = Filename.temp_file "rgleak_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      Alcotest.(check int)
        "NaN correlation range" 2
        (run ~err [ "estimate"; "-n"; "500"; "--corr"; "exp:nan" ]);
      let stderr = read_file err in
      if contains stderr "degrading" then
        Alcotest.failf "NaN range reached the estimator tiers: %s" stderr)

(* fault-spec edge cases: every malformed shape must exit 2 before any
   estimation work, including duplicates that List.assoc would silently
   shadow if configure accepted them *)
let test_fault_spec_edge_cases () =
  check_exit "empty spec" 2 [ "estimate"; "-n"; "200"; "--fault-spec"; "" ];
  check_exit "missing fields" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "cholesky:1" ];
  check_exit "too many fields" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "cholesky:1:1:1" ];
  check_exit "non-numeric probability" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "cholesky:often:1" ];
  check_exit "negative probability" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "cholesky:-0.1:1" ];
  check_exit "probability above one" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "quadrature:1.5:1" ];
  check_exit "non-integer seed" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "cholesky:0.5:x" ];
  check_exit "site name with wrong case" 2
    [ "estimate"; "-n"; "200"; "--fault-spec"; "Cholesky:0.5:1" ];
  check_exit "duplicate site" 2
    [ "estimate"; "-n"; "200";
      "--fault-spec"; "cholesky:0.5:1"; "--fault-spec"; "cholesky:1:2" ];
  (* distinct sites stay legal *)
  check_exit "two distinct sites accepted" 0
    [ "estimate"; "-n"; "200";
      "--fault-spec"; "cholesky:0:1"; "--fault-spec"; "quadrature:0:2" ]

(* a numeric breakdown under --strict exits 3 *)
let test_numeric_strict () =
  check_exit "poisoned F memo, strict" 3
    [ "estimate"; "-n"; "200"; "--method"; "linear";
      "--fault-spec"; "linear.f:1:1"; "--strict" ]

(* without --strict the failing tier is skipped and the run succeeds *)
let test_best_effort_degradation () =
  check_exit "poisoned F memo, best effort" 0
    [ "estimate"; "-n"; "200"; "--method"; "linear";
      "--fault-spec"; "linear.f:1:1" ]

(* identical fault specs give byte-identical output *)
let test_fault_determinism () =
  let args out =
    run ~out
      [ "estimate"; "-n"; "200"; "--method"; "linear";
        "--fault-spec"; "linear.f:0.5:42" ]
  in
  let t1 = Filename.temp_file "rgleak_cli" ".out"
  and t2 = Filename.temp_file "rgleak_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove t1; Sys.remove t2)
    (fun () ->
      let c1 = args t1 and c2 = args t2 in
      Alcotest.(check int) "same exit code" c1 c2;
      Alcotest.(check string) "byte-identical stdout" (read_file t1)
        (read_file t2))

(* ---------- batch ---------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rgleak_cli_batch_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let batch_manifest =
  {|{"id": "a", "n": 300, "mix": "INV_X1:3,NAND2_X1:2", "corr": "spherical:120", "tier": "linear", "seed": 7}
{"id": "b", "n": 120, "mix": "INV_X1:1,NOR2_X1:1", "corr": "spherical:120", "tier": "mc", "seed": 5, "replicas": 24}
|}

(* batch reports must be bit-identical across --jobs values *)
let test_batch_jobs_determinism () =
  with_temp_dir @@ fun dir ->
  let manifest = Filename.concat dir "m.jsonl" in
  write_file manifest batch_manifest;
  let out_of jobs =
    let out = Filename.concat dir (Printf.sprintf "out_j%d.jsonl" jobs) in
    let code =
      run
        [ "batch"; manifest; "--no-cache"; "--jobs"; string_of_int jobs;
          "--out"; out ]
    in
    Alcotest.(check int) (Printf.sprintf "jobs %d exits 0" jobs) 0 code;
    read_file out
  in
  Alcotest.(check string)
    "reports identical across --jobs 1/4" (out_of 1) (out_of 4)

(* cold and warm cache runs must produce byte-identical reports, and
   the warm run must actually hit the cache *)
let test_batch_cold_warm () =
  with_temp_dir @@ fun dir ->
  let manifest = Filename.concat dir "m.jsonl" in
  write_file manifest batch_manifest;
  let go tag =
    let out = Filename.concat dir (tag ^ ".jsonl") in
    let metrics = Filename.concat dir (tag ^ "-metrics.json") in
    let code =
      run
        [ "batch"; manifest; "--cache-dir"; Filename.concat dir "cache";
          "--out"; out; "--metrics-json"; metrics ]
    in
    Alcotest.(check int) (tag ^ " exits 0") 0 code;
    (read_file out, read_file metrics)
  in
  let cold, _ = go "cold" in
  let warm, warm_metrics = go "warm" in
  Alcotest.(check string) "cold and warm reports identical" cold warm;
  let hit_line =
    String.split_on_char '\n' warm_metrics
    |> List.exists (fun l ->
           let t = String.trim l in
           String.length t > 13
           && String.sub t 0 13 = {|"cache.hits":|}
           &&
           let v = String.trim (String.sub t 13 (String.length t - 13)) in
           v <> "0" && v <> "0,")
  in
  Alcotest.(check bool) "warm run recorded cache hits" true hit_line

(* manifest-level errors exit 2 before any scenario runs *)
let test_batch_manifest_errors () =
  with_temp_dir @@ fun dir ->
  let path name contents =
    let p = Filename.concat dir name in
    write_file p contents;
    p
  in
  let empty = path "empty.jsonl" "# only a comment\n\n" in
  Alcotest.(check int) "empty manifest exits 2" 2
    (run [ "batch"; empty; "--no-cache" ]);
  let bad = path "bad.jsonl" {|{"n": 10, "mix": "INV_X1:1"}|} in
  Alcotest.(check int) "missing corr field exits 2" 2
    (run [ "batch"; bad; "--no-cache" ]);
  Alcotest.(check int) "missing manifest file exits 2" 2
    (run [ "batch"; Filename.concat dir "nosuch.jsonl"; "--no-cache" ]);
  (* The shift bound is checked when the line is parsed, as for
     tail --shift: no scenario runs and no report is written. *)
  let shift =
    path "shift.jsonl"
      {|{"n": 60, "mix": "INV_X1:1", "corr": "exp:60", "tier": "tail", "budget": 5, "shift": 31}|}
  in
  let out = Filename.concat dir "shift_report.jsonl" in
  Alcotest.(check int) "tail shift beyond 30 nm exits 2" 2
    (run [ "batch"; shift; "--no-cache"; "--out"; out ]);
  Alcotest.(check bool) "rejected before any report" false
    (Sys.file_exists out)

(* ---------- run ledger and fleet report ---------- *)

let check_contains name hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in:\n%s" name needle hay

(* ---------- tail ---------- *)

let tail_args = [ "tail"; "-n"; "120"; "--budget"; "0.5"; "--replicas"; "200" ]

(* the rgleak-tail/1 report carries every contract field *)
let test_tail_schema () =
  with_temp_dir @@ fun dir ->
  let json = Filename.concat dir "tail.json" in
  Alcotest.(check int) "tail exits 0" 0 (run (tail_args @ [ "--json"; json ]));
  let doc = read_file json in
  List.iter
    (fun field -> check_contains "tail report field" doc ("\"" ^ field ^ "\""))
    [ "schema"; "n"; "corr"; "mix"; "p"; "seed"; "replicas"; "confidence";
      "budget_na"; "delta_nm"; "shift_norm2"; "p_exceed"; "se"; "ci_lo";
      "ci_hi"; "wilson_lo"; "wilson_hi"; "hits"; "hit_rate"; "ess";
      "mean_weight"; "max_weight"; "analytic_p"; "quantiles"; "level";
      "leakage_na" ];
  check_contains "schema id" doc {|"schema": "rgleak-tail/1"|}

(* invalid budgets and shifts are input diagnostics: exit 2 before any
   factorization or sampling *)
let test_tail_invalid_input () =
  check_exit "zero budget" 2
    [ "tail"; "-n"; "120"; "--budget"; "0"; "--replicas"; "200" ];
  check_exit "negative budget" 2
    [ "tail"; "-n"; "120"; "--budget=-2"; "--replicas"; "200" ];
  check_exit "nan budget" 2
    [ "tail"; "-n"; "120"; "--budget"; "nan"; "--replicas"; "200" ];
  check_exit "shift beyond the characterization grid" 2
    (tail_args @ [ "--shift"; "99" ]);
  check_exit "one replica" 2
    [ "tail"; "-n"; "120"; "--budget"; "0.5"; "--replicas"; "1" ];
  check_exit "bad signal probability" 2 (tail_args @ [ "-p"; "1.5" ])

(* an injected cholesky fault surfaces as a numeric diagnostic *)
let test_tail_fault_exit () =
  check_exit "cholesky fault exits 3" 3
    (tail_args @ [ "--fault-spec"; "cholesky:1:1" ])

(* the report is a pure function of the arguments: reruns and --jobs
   variations are byte-identical *)
let test_tail_determinism () =
  with_temp_dir @@ fun dir ->
  let go tag jobs =
    let out = Filename.concat dir (tag ^ ".json") in
    let code =
      run (tail_args @ [ "--jobs"; string_of_int jobs; "--json"; out ])
    in
    Alcotest.(check int) (tag ^ " exits 0") 0 code;
    read_file out
  in
  let a = go "a" 1 in
  Alcotest.(check string) "rerun byte-identical" a (go "b" 1);
  Alcotest.(check string) "jobs 4 byte-identical" a (go "j4" 4)

(* ---------- optimize ---------- *)

let optimize_args = [ "optimize"; "-n"; "120"; "--budget"; "2"; "--seed"; "7" ]

(* the rgleak-optimize/1 report carries every contract field *)
let test_optimize_schema () =
  with_temp_dir @@ fun dir ->
  let json = Filename.concat dir "optimize.json" in
  Alcotest.(check int) "optimize exits 0" 0
    (run (optimize_args @ [ "--json"; json ]));
  let doc = read_file json in
  List.iter
    (fun field ->
      check_contains "optimize report field" doc ("\"" ^ field ^ "\""))
    [ "schema"; "n"; "corr"; "mix"; "p"; "seed"; "start"; "method"; "budget";
      "spent"; "swaps"; "moves_lvt_svt"; "moves_lvt_hvt"; "moves_svt_hvt";
      "leakage_reduction"; "exact_initial_mean"; "exact_initial_std";
      "exact_final_mean"; "exact_final_std"; "linear_initial_mean";
      "linear_final_mean"; "integral_initial_mean"; "integral_final_mean" ];
  check_contains "schema id" doc {|"schema": "rgleak-optimize/1"|}

(* invalid budgets and start flavors are input diagnostics: exit 2
   before any staging (note the --budget=-3 form: a bare "-3" operand
   is a CLI syntax error, not our diagnostic) *)
let test_optimize_invalid_input () =
  check_exit "zero budget" 2
    [ "optimize"; "-n"; "120"; "--budget"; "0"; "--seed"; "7" ];
  check_exit "negative budget" 2
    [ "optimize"; "-n"; "120"; "--budget=-3"; "--seed"; "7" ];
  check_exit "nan budget" 2
    [ "optimize"; "-n"; "120"; "--budget"; "nan"; "--seed"; "7" ];
  check_exit "unknown start flavor" 2 (optimize_args @ [ "--start"; "xvt" ]);
  check_exit "all-HVT start has no downgrades" 2
    (optimize_args @ [ "--start"; "hvt" ]);
  check_exit "bad signal probability" 2 (optimize_args @ [ "-p"; "1.5" ])

(* an injected delta fault poisons the recombined variance: exit 3 *)
let test_optimize_fault_exit () =
  check_exit "delta fault exits 3" 3
    (optimize_args @ [ "--fault-spec"; "delta:1:11" ])

(* the report is a pure function of the arguments: reruns and --jobs
   variations are byte-identical *)
let test_optimize_determinism () =
  with_temp_dir @@ fun dir ->
  let go tag jobs =
    let out = Filename.concat dir (tag ^ ".json") in
    let code =
      run (optimize_args @ [ "--jobs"; string_of_int jobs; "--json"; out ])
    in
    Alcotest.(check int) (tag ^ " exits 0") 0 code;
    read_file out
  in
  let a = go "a" 1 in
  Alcotest.(check string) "rerun byte-identical" a (go "b" 1);
  Alcotest.(check string) "jobs 4 byte-identical" a (go "j4" 4)

(* every run with --ledger appends one parseable rgleak-run/1 record *)
let test_ledger_written () =
  with_temp_dir @@ fun dir ->
  let ledger = Filename.concat (Filename.concat dir "sub") "ledger.jsonl" in
  let go () =
    Alcotest.(check int) "estimate with --ledger exits 0" 0
      (run
         [ "estimate"; "-n"; "200"; "--method"; "linear"; "--ledger"; ledger ])
  in
  go ();
  go ();
  let lines =
    read_file ledger |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one record per run" 2 (List.length lines);
  List.iter
    (fun l ->
      check_contains "run schema" l {|"schema": "rgleak-run/1"|};
      check_contains "subcommand recorded" l {|"subcommand": "estimate"|};
      check_contains "exit class recorded" l {|"exit_class": "ok"|})
    lines

(* a failing run still lands in the ledger, with its diagnostic class *)
let test_ledger_records_failures () =
  with_temp_dir @@ fun dir ->
  let ledger = Filename.concat dir "ledger.jsonl" in
  Alcotest.(check int) "invalid input exits 2" 2
    (run
       [ "estimate"; "-n"; "200"; "--method"; "bogus"; "--ledger"; ledger ]);
  check_contains "failure recorded" (read_file ledger)
    {|"exit_class": "invalid-input"|}

let test_report_over_ledger () =
  with_temp_dir @@ fun dir ->
  let ledger = Filename.concat dir "ledger.jsonl" in
  Alcotest.(check int) "run one" 0
    (run [ "estimate"; "-n"; "200"; "--method"; "linear"; "--ledger"; ledger ]);
  Alcotest.(check int) "run two" 0
    (run [ "estimate"; "-n"; "150"; "--method"; "linear"; "--ledger"; ledger ]);
  let json = Filename.concat dir "report.json" in
  Alcotest.(check int) "report exits 0" 0
    (run [ "report"; ledger; "--json"; json ]);
  let doc = read_file json in
  check_contains "report schema" doc {|"schema": "rgleak-report/1"|};
  check_contains "both runs counted" doc {|"runs": 2|};
  check_contains "runs attributed to estimate" doc {|"estimate": 2|};
  (* a window diffed against itself never regresses *)
  Alcotest.(check int) "self-diff exits 0" 0
    (run [ "report"; ledger; "--diff"; ledger ])

let test_report_missing_input () =
  Alcotest.(check int) "missing ledger exits 2" 2
    (run [ "report"; "/nonexistent/ledger.jsonl" ]);
  Alcotest.(check int) "no inputs at all exits 2" 2 (run [ "report" ])

(* ---------- serve ---------- *)

(* Spawn the daemon as a real child process (stderr to a log file),
   hand the test its socket and pid, and always reap it. *)
let with_daemon ?(args = []) dir f =
  let sock = Filename.concat dir "serve.sock" in
  let errlog = Filename.concat dir "serve.err" in
  let err_fd =
    Unix.openfile errlog [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ((rgleak :: [ "serve"; "--socket"; sock ]) @ args) in
  let pid = Unix.create_process rgleak argv Unix.stdin Unix.stdout err_fd in
  Unix.close err_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check int)
        "daemon answers ping" 0
        (run [ "client"; "--socket"; sock; "--ping"; "--wait"; "10" ]);
      f ~sock ~pid)

(* The rgleak-batch/1 report minus its header line: what the daemon's
   estimate responses must reproduce byte for byte. *)
let records_of_report s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let serve_manifest = batch_manifest

let batch_reference dir =
  let manifest = Filename.concat dir "m.jsonl" in
  write_file manifest serve_manifest;
  let ref_out = Filename.concat dir "batch-ref.jsonl" in
  Alcotest.(check int) "reference batch exits 0" 0
    (run [ "batch"; manifest; "--no-cache"; "--out"; ref_out ]);
  (manifest, records_of_report (read_file ref_out))

(* daemon responses are byte-identical to batch records, duplicates hit
   the shared cache, and the stats endpoint reports it *)
let test_serve_byte_identity_and_cache () =
  with_temp_dir @@ fun dir ->
  let manifest, reference = batch_reference dir in
  with_daemon ~args:[ "--cache-dir"; Filename.concat dir "cache" ] dir
  @@ fun ~sock ~pid:_ ->
  let ask tag =
    let out = Filename.concat dir (tag ^ ".out") in
    Alcotest.(check int) (tag ^ " exits 0") 0
      (run ~out [ "client"; "--socket"; sock; "--manifest"; manifest ]);
    read_file out
  in
  Alcotest.(check string)
    "cold response byte-identical to batch records" reference (ask "cold");
  Alcotest.(check string)
    "duplicate response byte-identical too" reference (ask "warm");
  let stats_out = Filename.concat dir "stats.json" in
  Alcotest.(check int) "stats exits 0" 0
    (run ~out:stats_out [ "client"; "--socket"; sock; "--stats" ]);
  let stats = read_file stats_out in
  check_contains "stats schema" stats {|"schema": "rgleak-serve-stats/1"|};
  check_contains "both requests counted" stats {|"requests": 2|};
  check_contains "cache enabled" stats {|"enabled": true|};
  if contains stats {|"hits": 0,|} then
    Alcotest.failf "duplicate request produced no cache hits:\n%s" stats

(* eight concurrent clients, all served, all byte-identical *)
let test_serve_concurrent_clients () =
  with_temp_dir @@ fun dir ->
  let manifest, reference = batch_reference dir in
  with_daemon ~args:[ "--cache-dir"; Filename.concat dir "cache" ] dir
  @@ fun ~sock ~pid:_ ->
  let spawn i =
    let out = Filename.concat dir (Printf.sprintf "c%d.out" i) in
    let out_fd =
      Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let pid =
      Unix.create_process rgleak
        [| rgleak; "client"; "--socket"; sock; "--manifest"; manifest |]
        Unix.stdin out_fd Unix.stderr
    in
    Unix.close out_fd;
    (pid, out)
  in
  let clients = List.init 8 spawn in
  List.iteri
    (fun i (pid, out) ->
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, status ->
        Alcotest.failf "client %d failed: %s" i
          (match status with
          | Unix.WEXITED c -> Printf.sprintf "exit %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
      Alcotest.(check string)
        (Printf.sprintf "client %d byte-identical" i)
        reference (read_file out))
    clients

(* a \u escape in a manifest id decodes to UTF-8 and prints back raw *)
let test_unicode_id () =
  with_temp_dir @@ fun dir ->
  let manifest = Filename.concat dir "u.jsonl" in
  write_file manifest
    {|{"id": "caf\u00e9", "n": 100, "mix": "INV_X1:1", "corr": "spherical:100", "tier": "linear"}
|};
  let out = Filename.concat dir "batch.jsonl" in
  Alcotest.(check int) "batch exits 0" 0
    (run [ "batch"; manifest; "--no-cache"; "--out"; out ]);
  check_contains "batch id decoded" (read_file out) "\"id\": \"caf\xc3\xa9\"";
  with_daemon ~args:[ "--no-cache" ] dir @@ fun ~sock ~pid:_ ->
  let resp = Filename.concat dir "serve.out" in
  Alcotest.(check int) "client exits 0" 0
    (run ~out:resp [ "client"; "--socket"; sock; "--manifest"; manifest ]);
  check_contains "serve id decoded" (read_file resp) "\"id\": \"caf\xc3\xa9\""

(* queue pressure sheds exact/mc tiers to the integral tier, marked *)
let test_serve_shedding () =
  with_temp_dir @@ fun dir ->
  let manifest = Filename.concat dir "exact.jsonl" in
  write_file manifest
    {|{"id": "ex", "n": 200, "mix": "INV_X1:1", "corr": "spherical:100", "tier": "exact"}
|};
  with_daemon ~args:[ "--no-cache"; "--shed-threshold"; "0" ] dir
  @@ fun ~sock ~pid:_ ->
  let out = Filename.concat dir "shed.out" in
  Alcotest.(check int) "degraded request still succeeds" 0
    (run ~out [ "client"; "--socket"; sock; "--manifest"; manifest ]);
  let resp = read_file out in
  check_contains "record keeps its id" resp {|"id": "ex"|};
  check_contains "record marked degraded" resp {|"degraded": true|};
  check_contains "requested tier recorded" resp {|"requested_tier": "exact"|};
  let stats_out = Filename.concat dir "stats.json" in
  Alcotest.(check int) "stats exits 0" 0
    (run ~out:stats_out [ "client"; "--socket"; sock; "--stats" ]);
  check_contains "shed counted" (read_file stats_out) {|"sheds": 1|}

(* a full admission queue rejects with the overload code *)
let test_serve_overload_rejection () =
  with_temp_dir @@ fun dir ->
  let manifest = Filename.concat dir "m.jsonl" in
  write_file manifest serve_manifest;
  with_daemon ~args:[ "--no-cache"; "--max-queue"; "0" ] dir
  @@ fun ~sock ~pid:_ ->
  Alcotest.(check int) "estimate rejected with code 5" 5
    (run [ "client"; "--socket"; sock; "--manifest"; manifest ]);
  let stats_out = Filename.concat dir "stats.json" in
  Alcotest.(check int) "stats still answered" 0
    (run ~out:stats_out [ "client"; "--socket"; sock; "--stats" ]);
  check_contains "rejection counted" (read_file stats_out) {|"rejected": 1|}

(* request-level errors carry the diagnostic class *)
let test_serve_error_classes () =
  with_temp_dir @@ fun dir ->
  let bad = Filename.concat dir "bad.jsonl" in
  write_file bad "this is not json\n";
  with_daemon ~args:[ "--no-cache" ] dir @@ fun ~sock ~pid:_ ->
  Alcotest.(check int) "malformed manifest exits 2" 2
    (run [ "client"; "--socket"; sock; "--manifest"; bad ]);
  Alcotest.(check int) "client without an op exits 2" 2
    (run [ "client"; "--socket"; sock ])

(* SIGTERM drains and flushes the final ledger line; exit 0 *)
let test_serve_sigterm_drain () =
  with_temp_dir @@ fun dir ->
  let manifest = Filename.concat dir "m.jsonl" in
  write_file manifest serve_manifest;
  let ledger = Filename.concat dir "ledger.jsonl" in
  with_daemon ~args:[ "--no-cache"; "--ledger"; ledger ] dir
  @@ fun ~sock ~pid ->
  Alcotest.(check int) "request before the drain" 0
    (run [ "client"; "--socket"; sock; "--manifest"; manifest ]);
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "drain exited %d" c
  | _, Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d" s
  | _, Unix.WSTOPPED s -> Alcotest.failf "daemon stopped by signal %d" s);
  let line = read_file ledger in
  check_contains "final ledger line present" line {|"schema": "rgleak-run/1"|};
  check_contains "attributed to serve" line {|"subcommand": "serve"|};
  check_contains "clean exit class" line {|"exit_class": "ok"|};
  Alcotest.(check bool) "socket unlinked after drain" false (Sys.file_exists sock)

(* an unbindable socket path is invalid input *)
let test_serve_bind_error () =
  check_exit "unbindable socket exits 2" 2
    [ "serve"; "--socket"; "/nonexistent-rgleak-dir/serve.sock" ];
  check_exit "client to a dead socket exits 2" 2
    [ "client"; "--socket"; "/nonexistent-rgleak-dir/serve.sock"; "--ping" ]

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "rgleak-cli"
    [
      ( "exit-codes",
        [
          case "invalid input exits 2" test_invalid_input;
          case "fault-spec edge cases exit 2" test_fault_spec_edge_cases;
          case "numeric breakdown exits 3 under --strict" test_numeric_strict;
          case "best-effort degradation exits 0" test_best_effort_degradation;
          case "fault runs are deterministic" test_fault_determinism;
        ] );
      ( "batch",
        [
          case "reports identical across --jobs" test_batch_jobs_determinism;
          case "cold/warm cache runs identical with hits"
            test_batch_cold_warm;
          case "manifest errors exit 2" test_batch_manifest_errors;
        ] );
      ( "tail",
        [
          case "report carries the rgleak-tail/1 contract" test_tail_schema;
          case "invalid budget/shift exit 2" test_tail_invalid_input;
          case "injected cholesky fault exits 3" test_tail_fault_exit;
          case "byte-identical across reruns and --jobs" test_tail_determinism;
        ] );
      ( "optimize",
        [
          case "report carries the rgleak-optimize/1 contract"
            test_optimize_schema;
          case "invalid budget/start exit 2" test_optimize_invalid_input;
          case "injected delta fault exits 3" test_optimize_fault_exit;
          case "byte-identical across reruns and --jobs"
            test_optimize_determinism;
        ] );
      ( "ledger",
        [
          case "--ledger appends one record per run" test_ledger_written;
          case "failing runs land with their diagnostic class"
            test_ledger_records_failures;
          case "report aggregates a ledger window" test_report_over_ledger;
          case "report rejects missing inputs" test_report_missing_input;
        ] );
      ( "serve",
        [
          case "responses byte-identical to batch, duplicates hit the cache"
            test_serve_byte_identity_and_cache;
          case "eight concurrent clients all served identically"
            test_serve_concurrent_clients;
          case "queue pressure sheds to the integral tier"
            test_serve_shedding;
          case "full queue rejects with the overload code"
            test_serve_overload_rejection;
          case "request errors carry the diagnostic class"
            test_serve_error_classes;
          case "SIGTERM drains and flushes the ledger"
            test_serve_sigterm_drain;
          case "unbindable socket is invalid input" test_serve_bind_error;
          case "unicode ids survive batch and serve" test_unicode_id;
        ] );
    ]
