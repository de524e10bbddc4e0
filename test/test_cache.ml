(* The content-addressed cache and the batch engine.

   The contract under test: keys are stable across restarts (pure
   content hashes), warm runs replay the cold run's floats bit for bit,
   corruption (on-disk or fault-injected) degrades to a recompute and a
   diagnostic — never a crash or a changed result — and the empty-input
   guards return typed Invalid_input diagnostics. *)

open Rgleak_num
module Cache = Rgleak_cache.Cache
module Memo = Rgleak_cache.Memo
module Batch = Rgleak_cache.Batch
module Characterize = Rgleak_cells.Characterize
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Placer = Rgleak_circuit.Placer
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Random_gate = Rgleak_core.Random_gate
module Rg_correlation = Rgleak_core.Rg_correlation
module Estimator_linear = Rgleak_core.Estimator_linear
module Mc_reference = Rgleak_core.Mc_reference
module Experiment = Rgleak_valid.Experiment

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rgleak_cache_test_%d_%d" (Unix.getpid ()) !n)
    in
    (* Cache.open_ creates directories lazily; no mkdir needed here. *)
    dir

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Guard.Error Invalid_input" name
  | exception Guard.Error (Guard.Invalid_input _) -> ()

let check_invalid_msg name want f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Guard.Error Invalid_input" name
  | exception Guard.Error (Guard.Invalid_input msg) ->
    if not (contains msg want) then
      Alcotest.failf "%s: message %S lacks %S" name msg want

(* --- the store ------------------------------------------------------ *)

(* The key is a pure function of the part list: these literals pin the
   hash so a rebuild, a restart or another platform addresses the same
   entries (an accidental algorithm change would orphan every cache). *)
let test_key_stability () =
  Alcotest.(check string)
    "pinned digest" "c899d7cd06102a9d8c7a6ecdb67d783e"
    (Cache.key [ "a"; "bc" ]);
  Alcotest.(check string)
    "pinned digest 2" "56881f02774bf192b185174ec9fa299c"
    (Cache.key [ "ab"; "c" ]);
  Alcotest.(check bool)
    "part boundaries matter" false
    (Cache.key [ "a"; "bc" ] = Cache.key [ "ab"; "c" ]);
  Alcotest.(check string)
    "same parts, same key"
    (Cache.key [ "x"; "y"; "z" ])
    (Cache.key [ "x"; "y"; "z" ])

let test_put_get_counters () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let key = Cache.key [ "payload" ] in
  Alcotest.(check (option string))
    "miss on empty store" None
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Cache.put c ~kind:"t" ~version:1 ~key "hello";
  Alcotest.(check (option string))
    "hit after put" (Some "hello")
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Alcotest.(check (option string))
    "other version is a different namespace" None
    (Cache.get c ~kind:"t" ~version:2 ~key);
  Alcotest.(check (option string))
    "other kind is a different namespace" None
    (Cache.get c ~kind:"u" ~version:1 ~key);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "bytes read" 5 s.Cache.bytes_read;
  Alcotest.(check int) "bytes written" 5 s.Cache.bytes_written;
  Alcotest.(check int) "no corruption" 0 s.Cache.corrupt

let corrupt_entry_on_disk dir =
  (* Flip a byte in every stored entry file under [dir]. *)
  let rec walk path =
    if Sys.is_directory path then
      Array.iter (fun f -> walk (Filename.concat path f)) (Sys.readdir path)
    else begin
      let ic = open_in_bin path in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let i = Bytes.length s - 1 in
      Bytes.set s i (if Bytes.get s i = 'x' then 'y' else 'x');
      let oc = open_out_bin path in
      output_string oc (Bytes.to_string s);
      close_out oc
    end
  in
  walk dir

let test_corruption_recovery () =
  let dir = fresh_dir () in
  let diags = ref [] in
  let c = Cache.open_ ~on_corrupt:(fun d -> diags := d :: !diags) ~dir () in
  let key = Cache.key [ "poisoned" ] in
  Cache.put c ~kind:"t" ~version:1 ~key "payload-bytes";
  corrupt_entry_on_disk dir;
  Alcotest.(check (option string))
    "corrupt entry reads as miss" None
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Alcotest.(check int) "corruption counted" 1 (Cache.stats c).Cache.corrupt;
  (match !diags with
  | [ Guard.Invalid_input msg ] ->
    Alcotest.(check bool)
      "diagnostic names the entry" true
      (contains msg "corrupt cache entry")
  | _ -> Alcotest.fail "expected exactly one Invalid_input diagnostic");
  (* The bad entry was deleted: the next read is a plain miss and a
     re-put works again. *)
  Alcotest.(check (option string))
    "entry deleted" None
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Alcotest.(check int) "still one corruption" 1 (Cache.stats c).Cache.corrupt;
  Cache.put c ~kind:"t" ~version:1 ~key "payload-bytes";
  Alcotest.(check (option string))
    "store recovers" (Some "payload-bytes")
    (Cache.get c ~kind:"t" ~version:1 ~key)

let test_fault_site () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let key = Cache.key [ "fault" ] in
  Cache.put c ~kind:"t" ~version:1 ~key "v";
  Guard.Fault.configure [ { Guard.Fault.site = "cache"; prob = 1.0; seed = 1 } ];
  Fun.protect ~finally:Guard.Fault.clear (fun () ->
      Alcotest.(check (option string))
        "armed cache site forces the corrupt path" None
        (Cache.get c ~kind:"t" ~version:1 ~key));
  Alcotest.(check int) "counted as corrupt" 1 (Cache.stats c).Cache.corrupt

(* --- memoized artifacts -------------------------------------------- *)

let asic_mix =
  [ ("INV_X1", 3.0); ("NAND2_X1", 2.0); ("NOR2_X1", 1.0); ("DFF_X1", 1.0) ]

let build_rgcorr ?cache ~key_parts () =
  let chars = Characterize.default_library () in
  let histogram = Histogram.of_weights asic_mix in
  let p = 0.5 in
  let rg = Random_gate.create ~chars ~histogram ~p () in
  Memo.correlation ?cache ~chars ~rg ~p ~key_parts ()

let test_rgcorr_cold_warm_identical () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let key_parts = [ "test-rgcorr"; "asic"; "p=0.5" ] in
  let cold = build_rgcorr ~cache:c ~key_parts () in
  let warm = build_rgcorr ~cache:c ~key_parts () in
  Alcotest.(check int) "one miss then one hit" 1 (Cache.stats c).Cache.hits;
  List.iter
    (fun rho_l ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "f bit-identical at rho=%g" rho_l)
        (Rg_correlation.f cold ~rho_l)
        (Rg_correlation.f warm ~rho_l))
    [ 0.0; 0.137; 0.5; 0.83; 1.0 ];
  Alcotest.(check (float 0.0))
    "sigma_bar bit-identical"
    (Rg_correlation.sigma_bar cold)
    (Rg_correlation.sigma_bar warm);
  List.iter
    (fun rho_l ->
      Alcotest.(check (float 0.0))
        "pair covariance bit-identical"
        (Rg_correlation.cell_pair_covariance cold ~ci:0 ~cj:0 ~rho_l)
        (Rg_correlation.cell_pair_covariance warm ~ci:0 ~cj:0 ~rho_l))
    [ 0.25; 0.75 ]

let spherical_corr =
  Corr_model.create
    (Corr_model.Spherical { dmax = 120.0 })
    Process_param.default_channel_length

let linear_result ?cache ?(rgcorr_cache = cache) () =
  let rgcorr = build_rgcorr ?cache:rgcorr_cache ~key_parts:[ "lin-test" ] () in
  let corr = spherical_corr in
  let layout = Layout.of_dims ~n:300 ~width:70.0 ~height:70.0 in
  Memo.with_linear_memo ?cache ~key_parts:[ "lin-test"; "spherical:120" ]
    ~rows:(Layout.rows layout) ~cols:layout.Layout.cols (fun memo ->
      Estimator_linear.estimate ~memo ~corr ~rgcorr ~layout ())

let test_linear_memo_cold_warm_identical () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let cold = linear_result ~cache:c () in
  let stats_cold = Cache.stats c in
  let warm = linear_result ~cache:c () in
  let stats_warm = Cache.stats c in
  Alcotest.(check bool)
    "warm run hit the store" true
    (stats_warm.Cache.hits > stats_cold.Cache.hits);
  Alcotest.(check (float 0.0))
    "mean bit-identical" cold.Estimator_linear.mean warm.Estimator_linear.mean;
  Alcotest.(check (float 0.0))
    "variance bit-identical" cold.Estimator_linear.variance
    warm.Estimator_linear.variance;
  (* And both match the never-cached computation. *)
  let plain = linear_result () in
  Alcotest.(check (float 0.0))
    "cached equals uncached" plain.Estimator_linear.mean
    cold.Estimator_linear.mean

let test_poisoned_memo_recovers () =
  let dir = fresh_dir () in
  let c = Cache.open_ ~dir () in
  let cold = linear_result ~cache:c () in
  corrupt_entry_on_disk dir;
  let after = linear_result ~cache:c () in
  Alcotest.(check bool)
    "corruption detected" true
    ((Cache.stats c).Cache.corrupt > 0);
  Alcotest.(check (float 0.0))
    "recomputed result identical" cold.Estimator_linear.mean
    after.Estimator_linear.mean

let test_characterization_cached () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let cold = Memo.characterization ~cache:c ~temp_celsius:None () in
  let warm = Memo.characterization ~cache:c ~temp_celsius:None () in
  Alcotest.(check int) "warm hit" 1 (Cache.stats c).Cache.hits;
  Alcotest.(check int) "same cell count" (Array.length cold)
    (Array.length warm);
  Array.iteri
    (fun i cc ->
      let wc = warm.(i) in
      Array.iteri
        (fun s (st : Characterize.state_char) ->
          let wt = wc.Characterize.states.(s) in
          if
            not
              (st.Characterize.mu_analytic = wt.Characterize.mu_analytic
              && st.Characterize.sigma_analytic = wt.Characterize.sigma_analytic
              )
          then
            Alcotest.failf "cell %d state %d: cached moments differ" i s)
        cc.Characterize.states)
    cold

(* The four memoized kinds.  Each run sends only its own kind through
   the given handle and returns the value's exact bits as a string. *)
let memo_kinds =
  let bits xs = String.concat " " (List.map (Printf.sprintf "%h") xs) in
  [
    ( "chars",
      fun cache ->
        Rgleak_cells.Char_io.to_string
          (Memo.characterization ?cache ~temp_celsius:None ()) );
    ( "rgcorr",
      fun cache ->
        Rg_correlation.table_fingerprint
          (build_rgcorr ?cache ~key_parts:[ "kinds" ] ()) );
    ( "deltacov",
      fun cache ->
        let rgcorr = build_rgcorr ~key_parts:[ "kinds" ] () in
        let used =
          (Rg_correlation.tables rgcorr).Rg_correlation.t_support_cells
        in
        let cov =
          Memo.delta_tables ?cache ~corr:spherical_corr ~rgcorr ~used
            ~distance_points:16 ~dstep:4.0 ~key_parts:[ "kinds" ] ()
        in
        bits (List.init (Bigarray.Array1.dim cov) (Bigarray.Array1.get cov)) );
    ( "linmemo",
      fun cache ->
        let r = linear_result ?cache ~rgcorr_cache:None () in
        bits [ r.Estimator_linear.mean; r.Estimator_linear.variance ] );
  ]

(* The key of the only entry of [kind] stored under [dir]. *)
let only_key dir kind =
  let ls d = Array.to_list (Sys.readdir d) in
  let kdir = Filename.concat dir (kind ^ "-v1") in
  match List.concat_map (fun s -> ls (Filename.concat kdir s)) (ls kdir) with
  | [ file ] -> Filename.chop_suffix file ".rgc"
  | files ->
    Alcotest.failf "%s: want one entry, found %d" kind (List.length files)

let test_memo_kinds_cold_warm () =
  List.iter
    (fun (kind, run) ->
      let c = Cache.open_ ~dir:(fresh_dir ()) () in
      let cold = run (Some c) in
      let warm = run (Some c) in
      let s = Cache.stats c in
      Alcotest.(check (pair int int))
        (kind ^ ": one miss, then one hit") (1, 1)
        (s.Cache.misses, s.Cache.hits);
      Alcotest.(check string) (kind ^ ": warm bit-identical") cold warm;
      Alcotest.(check string)
        (kind ^ ": cached equals uncached") (run None) cold)
    memo_kinds

(* A payload that passes the integrity check but does not decode is a
   corrupt miss, never a hit: it is reported, recomputed to the uncached
   value and overwritten, so the next call hits. *)
let test_memo_kinds_undecodable () =
  List.iter
    (fun (kind, run) ->
      let dir = fresh_dir () in
      let diags = ref [] in
      let c = Cache.open_ ~on_corrupt:(fun d -> diags := d :: !diags) ~dir () in
      let plain = run None in
      ignore (run (Some c));
      Cache.put c ~kind ~version:1 ~key:(only_key dir kind) "garbage\n";
      Cache.reset_stats c;
      let v = run (Some c) in
      let s = Cache.stats c in
      Alcotest.(check (list int))
        (kind ^ ": hits, misses, corrupt") [ 0; 1; 1 ]
        [ s.Cache.hits; s.Cache.misses; s.Cache.corrupt ];
      (match !diags with
      | [ Guard.Invalid_input msg ] when contains msg "corrupt cache entry" ->
        ()
      | _ -> Alcotest.failf "%s: want one corrupt-entry diagnostic" kind);
      Alcotest.(check string) (kind ^ ": recomputed value") plain v;
      Alcotest.(check string) (kind ^ ": rewritten entry hits") plain
        (run (Some c));
      Alcotest.(check int) (kind ^ ": one hit") 1 (Cache.stats c).Cache.hits)
    memo_kinds

(* --- empty-input guards --------------------------------------------- *)

let test_empty_mix_guard () =
  check_invalid "empty mix" (fun () -> Histogram.of_weights [])

let test_empty_design_guard () =
  let chars = Characterize.default_library () in
  let netlist =
    Rgleak_circuit.Netlist.create ~name:"empty" ~num_primary_inputs:1 [||]
  in
  let layout = Layout.square ~n:4 () in
  let placed = Placer.place ~strategy:Placer.Sequential netlist layout in
  let corr =
    Corr_model.create
      (Corr_model.Spherical { dmax = 120.0 })
      Process_param.default_channel_length
  in
  check_invalid "zero-gate MC design" (fun () ->
      Mc_reference.prepare ~chars ~corr ~p:0.5 placed)

let test_empty_sweep_guard () =
  let sweep = { Experiment.quick_sweep with Experiment.points = [] } in
  check_invalid "empty sweep" (fun () -> Experiment.run ~seed:42 sweep)

(* --- batch manifests ------------------------------------------------ *)

let manifest_line =
  {|{"n": 60, "mix": "INV_X1:1,NOR2_X1:1", "corr": "spherical:120", "tier": "linear", "seed": 3}|}

let test_manifest_errors () =
  check_invalid "empty manifest" (fun () -> Batch.parse_manifest "");
  check_invalid "comments only" (fun () ->
      Batch.parse_manifest "# nothing\n\n# here\n");
  check_invalid "malformed JSON" (fun () -> Batch.parse_manifest "{nope\n");
  check_invalid "unknown field" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "bogus": 1}|});
  check_invalid "unknown cell" (fun () ->
      Batch.parse_manifest {|{"n": 10, "mix": "NOPE_X9:1", "corr": "exp:60"}|});
  check_invalid "empty mix string" (fun () ->
      Batch.parse_manifest {|{"n": 10, "mix": "", "corr": "exp:60"}|});
  check_invalid "zero gates" (fun () ->
      Batch.parse_manifest {|{"n": 0, "mix": "INV_X1:1", "corr": "exp:60"}|});
  check_invalid "width without height" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "width": 40}|});
  check_invalid "unknown tier" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "tier": "warp"}|});
  check_invalid "seed beyond 2^53" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "seed": 1e300}|});
  check_invalid_msg "n beyond 2^53" "field \"n\" must be an integer"
    (fun () ->
      Batch.parse_manifest {|{"n": 1e19, "mix": "INV_X1:1", "corr": "exp:60"}|});
  check_invalid "mix weights sum to zero" (fun () ->
      Batch.parse_manifest {|{"n": 10, "mix": "INV_X1:0", "corr": "exp:60"}|});
  check_invalid "temperature below absolute zero" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "temp": -400}|});
  check_invalid "temperature at absolute zero" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "temp": -273.15}|});
  check_invalid_msg "tail shift beyond 30 nm"
    "manifest line 1: shift must be within +/-30 nm" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "tier": "tail", "budget": 5, "shift": 31}|})

(* The same parser serves the CLI: without a line the message carries no
   manifest prefix, with one it is the manifest's message verbatim. *)
let test_scenario_parser_prefix () =
  let bad =
    Rgleak_obs.Json.parse {|{"n": 10, "mix": "NOPE_X9:1", "corr": "exp:60"}|}
  in
  let message f =
    match f () with
    | _ -> Alcotest.fail "unknown cell accepted"
    | exception Guard.Error (Guard.Invalid_input msg) -> msg
  in
  Alcotest.(check string)
    "no manifest prefix" {|unknown cell "NOPE_X9"|}
    (message (fun () -> Batch.parse_scenario bad));
  Alcotest.(check string)
    "manifest prefix" {|manifest line 4: unknown cell "NOPE_X9"|}
    (message (fun () -> Batch.parse_scenario ~line:4 bad));
  let ok = Batch.parse_scenario (Rgleak_obs.Json.parse manifest_line) in
  let from_manifest = List.hd (Batch.parse_manifest manifest_line) in
  Alcotest.(check int) "no line" 0 ok.Batch.s_line;
  Alcotest.(check bool)
    "same scenario as the manifest parser" true
    ({ ok with Batch.s_line = 1 } = from_manifest)

let test_manifest_ids_content_derived () =
  (* The derived id must not depend on the line position: the same
     scenario parsed from line 1 and line 3 gets the same id. *)
  let first = List.hd (Batch.parse_manifest manifest_line) in
  let shifted =
    List.hd (Batch.parse_manifest ("# pad\n\n" ^ manifest_line))
  in
  Alcotest.(check string)
    "id is a pure content hash" first.Batch.s_id shifted.Batch.s_id;
  Alcotest.(check int) "line is tracked" 3 shifted.Batch.s_line;
  Alcotest.(check bool)
    "key parts carry no line info" true
    (Batch.scenario_key_parts first = Batch.scenario_key_parts shifted)

let test_batch_run_and_report () =
  let scenarios = Batch.parse_manifest manifest_line in
  let outcomes = Batch.run scenarios in
  Alcotest.(check int) "all ok" 0 (Batch.exit_code outcomes);
  let report = Batch.report outcomes in
  let lines = String.split_on_char '\n' (String.trim report) in
  Alcotest.(check int) "header + one record" 2 (List.length lines);
  Alcotest.(check bool)
    "header carries the schema" true
    (contains (List.hd lines) "rgleak-batch/1");
  (* Per-scenario failures become error records, not exceptions: the
     polar tier refuses a correlation family with no finite support
     radius, and that surfaces as an invalid-input record (exit class
     2), not a crash. *)
  let bad =
    Batch.parse_manifest
      {|{"n": 40, "mix": "INV_X1:1", "corr": "exp:60", "tier": "polar", "seed": 1}|}
  in
  match Batch.run bad with
  | [ o ] ->
    Alcotest.(check int) "invalid-input class surfaces as exit 2" 2
      (Batch.exit_code [ o ]);
    Alcotest.(check bool)
      "record is an error record" true
      (contains (Rgleak_obs.Json.to_string o.Batch.o_json)
         {|"status": "error"|})
  | _ -> Alcotest.fail "expected one outcome"

(* --- LRU eviction --------------------------------------------------- *)

(* One entry's on-disk footprint, measured rather than assumed, so the
   cap arithmetic below tracks any header format change. *)
let entry_size () =
  let c = Cache.open_ ~cap_bytes:max_int ~dir:(fresh_dir ()) () in
  Cache.put c ~kind:"k" ~version:1 ~key:(Cache.key [ "probe" ])
    (String.make 100 'p');
  Cache.total_bytes c

let test_lru_eviction_under_cap () =
  let sz = entry_size () in
  let c = Cache.open_ ~cap_bytes:(2 * sz) ~dir:(fresh_dir ()) () in
  let key i = Cache.key [ string_of_int i ] in
  let put i = Cache.put c ~kind:"k" ~version:1 ~key:(key i) (String.make 100 'p')
  and get i = Cache.get c ~kind:"k" ~version:1 ~key:(key i) in
  put 1;
  put 2;
  Alcotest.(check int) "two entries fit the cap" (2 * sz) (Cache.total_bytes c);
  put 3;
  (* Coldest (1) evicted, newest exempt. *)
  Alcotest.(check bool) "coldest entry evicted" true (get 1 = None);
  Alcotest.(check bool) "warm entry kept" true (get 2 <> None);
  Alcotest.(check bool) "new entry kept" true (get 3 <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction counted" 1 s.Cache.evictions;
  Alcotest.(check int) "evicted bytes counted" sz s.Cache.bytes_evicted;
  Alcotest.(check int) "total back under cap" (2 * sz) (Cache.total_bytes c)

let test_lru_recency_survival () =
  let sz = entry_size () in
  let c = Cache.open_ ~cap_bytes:(2 * sz) ~dir:(fresh_dir ()) () in
  let key i = Cache.key [ string_of_int i ] in
  let put i = Cache.put c ~kind:"k" ~version:1 ~key:(key i) (String.make 100 'p')
  and get i = Cache.get c ~kind:"k" ~version:1 ~key:(key i) in
  put 1;
  put 2;
  ignore (get 1);
  (* A hit refreshes recency: now 2 is the coldest. *)
  put 3;
  Alcotest.(check bool) "recently-hit entry survives" true (get 1 <> None);
  Alcotest.(check bool) "stale entry evicted" true (get 2 = None);
  Alcotest.(check bool) "new entry kept" true (get 3 <> None)

let test_lru_keep_exempt_and_complete_reads () =
  (* A cap smaller than one entry still admits the entry just written
     (eviction never selects it), and every hit returns the complete
     payload even as writes evict around it — the "never evicted
     mid-read" contract through a single handle. *)
  let c = Cache.open_ ~cap_bytes:1 ~dir:(fresh_dir ()) () in
  let payload i = String.init 2048 (fun j -> Char.chr ((i + j) mod 256)) in
  let key i = Cache.key [ "p"; string_of_int i ] in
  for i = 1 to 4 do
    Cache.put c ~kind:"k" ~version:1 ~key:(key i) (payload i);
    (match Cache.get c ~kind:"k" ~version:1 ~key:(key i) with
    | Some p ->
      Alcotest.(check string)
        (Printf.sprintf "hit %d returns the complete payload" i)
        (payload i) p
    | None -> Alcotest.failf "entry %d missing right after its put" i);
    (* Everything but the newest write has been evicted. *)
    if i > 1 then
      Alcotest.(check bool)
        "previous entry evicted" true
        (Cache.get c ~kind:"k" ~version:1 ~key:(key (i - 1)) = None)
  done;
  Alcotest.(check int) "three evictions" 3 (Cache.stats c).Cache.evictions

let test_lru_index_survives_reopen () =
  let dir = fresh_dir () in
  let c = Cache.open_ ~cap_bytes:max_int ~dir () in
  Cache.put c ~kind:"k" ~version:1 ~key:(Cache.key [ "a" ]) "one";
  Cache.put c ~kind:"k" ~version:1 ~key:(Cache.key [ "b" ]) "two";
  let total = Cache.total_bytes c in
  Alcotest.(check bool) "nonzero total" true (total > 0);
  let c2 = Cache.open_ ~cap_bytes:max_int ~dir () in
  Alcotest.(check int) "reopened handle re-indexes the entries" total
    (Cache.total_bytes c2);
  (* An uncapped handle keeps no index at all. *)
  let c3 = Cache.open_ ~dir () in
  Alcotest.(check int) "uncapped handle keeps no index" 0 (Cache.total_bytes c3)

let suite =
  ( "cache",
    [
      Alcotest.test_case "key is stable and boundary-safe" `Quick
        test_key_stability;
      Alcotest.test_case "put/get round trip with counters" `Quick
        test_put_get_counters;
      Alcotest.test_case "corrupt entries are deleted and reported" `Quick
        test_corruption_recovery;
      Alcotest.test_case "the cache fault site forces recompute" `Quick
        test_fault_site;
      Alcotest.test_case "rgcorr tables reload bit-identically" `Quick
        test_rgcorr_cold_warm_identical;
      Alcotest.test_case "linear F memo reloads bit-identically" `Quick
        test_linear_memo_cold_warm_identical;
      Alcotest.test_case "poisoned memo entry recovers" `Quick
        test_poisoned_memo_recovers;
      Alcotest.test_case "every memo kind hits warm, bit-identically" `Quick
        test_memo_kinds_cold_warm;
      Alcotest.test_case "undecodable memo payloads are corrupt misses" `Quick
        test_memo_kinds_undecodable;
      Alcotest.test_case "characterization round-trips through the cache"
        `Quick test_characterization_cached;
      Alcotest.test_case "empty mix is Invalid_input" `Quick
        test_empty_mix_guard;
      Alcotest.test_case "zero-gate MC design is Invalid_input" `Quick
        test_empty_design_guard;
      Alcotest.test_case "empty sweep is Invalid_input" `Quick
        test_empty_sweep_guard;
      Alcotest.test_case "manifest errors are Invalid_input" `Quick
        test_manifest_errors;
      Alcotest.test_case "the CLI and manifests share one scenario parser"
        `Quick test_scenario_parser_prefix;
      Alcotest.test_case "scenario ids derive from content, not position"
        `Quick test_manifest_ids_content_derived;
      Alcotest.test_case "batch runs and reports" `Quick
        test_batch_run_and_report;
      Alcotest.test_case "LRU evicts the coldest past the cap" `Quick
        test_lru_eviction_under_cap;
      Alcotest.test_case "LRU hits refresh recency" `Quick
        test_lru_recency_survival;
      Alcotest.test_case "LRU never evicts the entry just written or mid-read"
        `Quick test_lru_keep_exempt_and_complete_reads;
      Alcotest.test_case "LRU index survives reopen" `Quick
        test_lru_index_survives_reopen;
    ] )
