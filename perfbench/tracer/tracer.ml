(* In-process layer tracer for the end-to-end benchmark.

   [tracer.exe profile DIR JOBS CACHE_CAP] replays the inputs that
   perfbench/run.py generated into DIR and times calls into each
   layer's public functions from the outside (no spans inside the
   program).  It prints one line per metric: NAME <TAB> VALUE <TAB> UNIT.

   [tracer.exe parse FILE...] parses each file with
   [Batch.parse_manifest] and prints its scenario count; it exits 2 on
   the first file the program would reject.

   Inputs read from DIR:
     pool.jsonl        serve-warm pool, one scenario per line
     churn-<i>.jsonl   serve-churn request manifests, i = 0, 1, ...
     batch-ref.jsonl   the batch-ref manifest
     optimize.args     N, MIX, BUDGET and SEED, one per line *)

module Batch = Rgleak_cache.Batch
module Cache = Rgleak_cache.Cache
module Memo = Rgleak_cache.Memo
module Char_io = Rgleak_cells.Char_io
module Characterize = Rgleak_cells.Characterize
module Signal_prob = Rgleak_cells.Signal_prob
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Generator = Rgleak_circuit.Generator
module Placer = Rgleak_circuit.Placer
module Netlist = Rgleak_circuit.Netlist
module Random_gate = Rgleak_core.Random_gate
module Rg_correlation = Rgleak_core.Rg_correlation
module Estimate = Rgleak_core.Estimate
module Estimator_exact = Rgleak_core.Estimator_exact
module Mc_reference = Rgleak_core.Mc_reference
module Tail = Rgleak_core.Tail
module Delta = Rgleak_core.Delta
module Optimize = Rgleak_core.Optimize
module Vt_correction = Rgleak_core.Vt_correction
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Rng = Rgleak_num.Rng
module Parallel = Rgleak_num.Parallel
module Obs = Rgleak_obs.Obs

(* ---------- timing and output ---------- *)

let now () = Int64.to_float (Obs.now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let record name v = Hashtbl.replace samples name (v :: get name)

(* [timed name f] runs [f] and records its duration (s) under [name]. *)
let timed name f =
  let r, dt = time f in
  record name dt;
  r

let median name =
  match get name with
  | [] -> failwith ("no samples for " ^ name)
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let total name = List.fold_left ( +. ) 0.0 (get name)
let calls name = List.length (get name)
let emit name value unit_ = Printf.printf "%s\t%.17g\t%s\n" name value unit_

(* A statistic of [sample] in ms (or [scale]/[unit_]), with the call
   count beside it as [sample.calls]. *)
let emit_stat stat ?(scale = 1000.0) ?(unit_ = "ms") metric sample =
  emit metric (stat sample *. scale) unit_;
  emit (sample ^ ".calls") (float_of_int (calls sample)) "count"

let emit_median = emit_stat median
let emit_total = emit_stat total

(* ---------- inputs ---------- *)

let dir = ref "."
let input name = Filename.concat !dir name
let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines_of text =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)

(* The batch engine's default geometry: a rectangle of area 16 n um^2. *)
let layout_of (s : Batch.scenario) =
  let area = 16.0 *. float_of_int s.Batch.s_n in
  Layout.of_dims ~n:s.Batch.s_n
    ~width:(sqrt (area *. s.Batch.s_aspect))
    ~height:(sqrt (area /. s.Batch.s_aspect))

let corr_of (s : Batch.scenario) =
  Corr_model.create s.Batch.s_family Process_param.default_channel_length

let p_of chars histogram = function
  | Some p -> p
  | None ->
    Signal_prob.maximizing_p chars ~weights:(Histogram.to_array histogram)

let placed_of (s : Batch.scenario) histogram =
  let rng = Rng.stream ~seed:s.Batch.s_seed 0 in
  let netlist = Generator.random_netlist ~histogram ~n:s.Batch.s_n ~rng () in
  Placer.place ~strategy:Placer.Random ~rng netlist (layout_of s)

let open_cache ?cap_bytes name = Cache.open_ ?cap_bytes ~dir:(input name) ()

(* A cache holding the characterization entry, as every primed
   workload's cache does. *)
let primed_cache ?cap_bytes name =
  let c = open_cache ?cap_bytes name in
  ignore (Memo.characterization ~cache:c ~temp_celsius:None ());
  c

let check_ok outcomes =
  List.iter
    (fun o ->
      if o.Batch.o_code <> 0 then failwith ("error record " ^ o.Batch.o_id))
    outcomes

let stats_delta (a : Cache.stats) (b : Cache.stats) =
  {
    b with
    Cache.hits = b.Cache.hits - a.Cache.hits;
    misses = b.Cache.misses - a.Cache.misses;
    evictions = b.Cache.evictions - a.Cache.evictions;
    bytes_read = b.Cache.bytes_read - a.Cache.bytes_read;
    bytes_written = b.Cache.bytes_written - a.Cache.bytes_written;
  }

(* ---------- single-layer calls on a side cache (own keys) ---------- *)

let structure chars (s : Batch.scenario) =
  let histogram = Histogram.of_weights s.Batch.s_mix in
  let p = p_of chars histogram s.Batch.s_p in
  (histogram, p, Random_gate.create ~chars ~histogram ~p ())

(* Rg_correlation.create, then Memo.correlation as a miss and a hit. *)
let correlation_layers side chars (s : Batch.scenario) =
  let _, p, rg = structure chars s in
  ignore
    (timed "rg_correlation.create" (fun () ->
         Rg_correlation.create ~chars ~rg ~p ()));
  let key_parts = [ "perfbench"; s.Batch.s_id ] in
  ignore
    (timed "memo.correlation_miss" (fun () ->
         Memo.correlation ~cache:side ~chars ~rg ~p ~key_parts ()));
  ignore
    (timed "memo.correlation_hit" (fun () ->
         Memo.correlation ~cache:side ~chars ~rg ~p ~key_parts ()))

let tier_method = function
  | Batch.Auto -> Some ("auto", Estimate.Auto)
  | Batch.Linear -> Some ("linear", Estimate.Linear)
  | Batch.Integral_2d -> Some ("int2d", Estimate.Integral_2d)
  | Batch.Integral_polar -> Some ("polar", Estimate.Integral_polar)
  | Batch.Exact | Batch.Mc | Batch.Tail -> None

let uses_linear (s : Batch.scenario) =
  s.Batch.s_tier = Batch.Linear
  || (s.Batch.s_tier = Batch.Auto && s.Batch.s_n <= 2000)

(* Estimate.run of an analytic scenario.  Where the linear tier runs,
   the call goes through Memo.with_linear_memo (first a miss, then the
   hit a warm daemon sees); the memo's own time is the total minus the
   estimator's.  [~memo] records the memo times, [~estimate] the
   estimator's time on the hit. *)
let estimate_layers side chars (s : Batch.scenario) ~memo ~estimate =
  match tier_method s.Batch.s_tier with
  | None -> ()
  | Some (name, method_) ->
    let histogram, p, rg = structure chars s in
    let rgcorr = Rg_correlation.create ~chars ~rg ~p () in
    let layout = layout_of s in
    let spec =
      {
        Estimate.histogram;
        n = s.Batch.s_n;
        width = Layout.width layout;
        height = Layout.height layout;
      }
    in
    let ctx = Estimate.context_with ~corr:(corr_of s) ~rgcorr ~histogram ~p () in
    let est_name = "estimate.run." ^ name in
    if uses_linear s then begin
      let key_parts = [ "perfbench"; s.Batch.s_id ] in
      let memo_run kind =
        let inner = ref 0.0 in
        let (), whole =
          time (fun () ->
              Memo.with_linear_memo ~cache:side ~key_parts
                ~rows:(Layout.rows layout) ~cols:layout.Layout.cols (fun m ->
                  let _, dt =
                    time (fun () -> Estimate.run ~lin_memo:m ~method_ ctx spec)
                  in
                  inner := dt))
        in
        if memo then record ("memo.linear_memo_" ^ kind) (whole -. !inner);
        !inner
      in
      ignore (memo_run "miss");
      let hit = memo_run "hit" in
      if estimate then record est_name hit
    end
    else if estimate then
      ignore (timed est_name (fun () -> Estimate.run ~method_ ctx spec))

(* ---------- serve-warm: each pool request as the daemon runs it ---------- *)

let serve_warm chars =
  let cache = primed_cache "trace-warm" in
  let pool = lines_of (read_file (input "pool.jsonl")) in
  let scens = Batch.parse_manifest (String.concat "\n" pool) in
  (* Prime as the daemon's primer does: the whole pool on one engine,
     which stays warm for the warm-engine timings. *)
  let warm = Batch.engine ~cache () in
  check_ok (List.map (Batch.run_one warm) scens);
  let s0 = Cache.stats cache in
  let exact = ref [] in
  List.iter2
    (fun line s ->
      let body = line ^ "\n" in
      let parsed =
        timed "batch.parse_manifest" (fun () -> Batch.parse_manifest body)
      in
      let outcomes, fresh =
        time (fun () ->
            let engine = Batch.engine ~cache () in
            List.map (Batch.run_one engine) parsed)
      in
      record "batch.fresh_engine" fresh;
      check_ok outcomes;
      ignore (timed "batch.report" (fun () -> Batch.report outcomes));
      ignore (timed "batch.warm_engine" (fun () -> Batch.run_one warm s));
      if s.Batch.s_tier = Batch.Exact then exact := (s, fresh) :: !exact)
    pool scens;
  let reads = stats_delta s0 (Cache.stats cache) in
  (* The layers inside a fresh engine, called one at a time. *)
  let chars_key = Cache.key (Memo.chars_key_parts ~temp_celsius:None) in
  for _ = 1 to 5 do
    (match
       timed "cache.get" (fun () ->
           Cache.get cache ~kind:"chars" ~version:1 ~key:chars_key)
     with
    | None -> failwith "characterization entry missing"
    | Some p ->
      ignore (timed "char_io.of_string" (fun () -> Char_io.of_string p)));
    ignore
      (timed "memo.characterization" (fun () ->
           Memo.characterization ~cache ~temp_celsius:None ()))
  done;
  let side = open_cache "trace-warm-side" in
  List.iter (estimate_layers side chars ~memo:false ~estimate:true) scens;
  (* Kernel share of a fresh-engine exact request, and the shed saving:
     the same request with its scenario rewritten to int2d, as the
     daemon's load shedding does. *)
  List.iter
    (fun ((s : Batch.scenario), fresh) ->
      let histogram, p, rg = structure chars s in
      let rgcorr = Rg_correlation.create ~chars ~rg ~p () in
      let placed = placed_of s histogram in
      let _, kernel =
        time (fun () -> Estimator_exact.estimate ~corr:(corr_of s) ~rgcorr placed)
      in
      record "serve.exact_kernel_share" (kernel /. fresh);
      let run s = snd (time (fun () -> Batch.run_one (Batch.engine ~cache ()) s)) in
      for _ = 1 to 3 do
        let full = run s in
        let shed = run { s with Batch.s_tier = Batch.Integral_2d } in
        record "shed.saving" (full -. shed)
      done)
    !exact;
  (reads, median "batch.parse_manifest" +. median "batch.fresh_engine"
          +. median "batch.report")

(* ---------- serve-churn: requests on a capped cache ---------- *)

let serve_churn chars cap =
  let cache = primed_cache ~cap_bytes:cap "trace-churn" in
  let rec files i =
    let f = input (Printf.sprintf "churn-%d.jsonl" i) in
    if Sys.file_exists f then f :: files (i + 1) else []
  in
  let bodies = List.map read_file (files 0) in
  let s0 = Cache.stats cache in
  let requests =
    List.map
      (fun body ->
        let scens =
          timed "batch.parse_churn" (fun () -> Batch.parse_manifest body)
        in
        let outcomes =
          timed "batch.churn_request" (fun () ->
              let engine = Batch.engine ~cache () in
              List.map (Batch.run_one engine) scens)
        in
        check_ok outcomes;
        ignore (timed "batch.report_churn" (fun () -> Batch.report outcomes));
        scens)
      bodies
  in
  let traffic = stats_delta s0 (Cache.stats cache) in
  let side = open_cache "trace-churn-side" in
  List.iter
    (List.iter (fun s ->
         correlation_layers side chars s;
         estimate_layers side chars s ~memo:true ~estimate:false))
    requests;
  (* Cache.put of a table-sized payload on the capped handle: the write
     path the churn traffic takes, eviction included. *)
  let size = max 1 (traffic.Cache.bytes_written / max 1 traffic.Cache.misses) in
  let payload = String.make size 'x' in
  for i = 1 to 20 do
    timed "cache.put" (fun () ->
        Cache.put cache ~kind:"perfbench" ~version:1
          ~key:(Cache.key [ "perfbench-put"; string_of_int i ])
          payload)
  done;
  (traffic, median "batch.parse_churn" +. median "batch.churn_request"
            +. median "batch.report_churn")

(* ---------- batch-ref: one op of the reference-tier manifest ---------- *)

let batch_ref () =
  let cache = primed_cache "trace-batch" in
  let body = read_file (input "batch-ref.jsonl") in
  let scens = timed "batch.parse_ref" (fun () -> Batch.parse_manifest body) in
  let chars =
    timed "batch.chars_ref" (fun () ->
        Memo.characterization ~cache ~temp_celsius:None ())
  in
  let pairs = ref 0.0 in
  List.iter
    (fun (s : Batch.scenario) ->
      let histogram, p, rg = structure chars s in
      let rgcorr =
        timed "batch.rgcorr_ref" (fun () -> Rg_correlation.create ~chars ~rg ~p ())
      in
      let placed = timed "placer.place" (fun () -> placed_of s histogram) in
      let corr = corr_of s in
      match s.Batch.s_tier with
      | Batch.Exact ->
        ignore
          (timed "exact.estimate" (fun () ->
               Estimator_exact.estimate ~corr ~rgcorr placed));
        let n = float_of_int s.Batch.s_n in
        pairs := !pairs +. (n *. (n -. 1.0) /. 2.0)
      | Batch.Mc ->
        let mc =
          timed "mc.prepare" (fun () -> Mc_reference.prepare ~chars ~corr ~p placed)
        in
        ignore
          (timed "mc.moments" (fun () ->
               Mc_reference.moments_stream mc ~seed:(s.Batch.s_seed + 104729)
                 ~count:s.Batch.s_replicas))
      | Batch.Tail ->
        let mc =
          timed "mc.prepare" (fun () -> Mc_reference.prepare ~chars ~corr ~p placed)
        in
        ignore
          (timed "tail.estimate" (fun () ->
               let budget = Option.get s.Batch.s_budget *. 1000.0 in
               let delta =
                 match s.Batch.s_shift with
                 | Some d -> d
                 | None -> Mc_reference.calibrate_shift mc ~budget
               in
               let shift = Mc_reference.uniform_shift mc ~delta in
               Tail.estimate ~mc ~budget ~shift ~seed:(s.Batch.s_seed + 104729)
                 ~replicas:s.Batch.s_replicas ()))
      | _ -> ())
    scens;
  let busy =
    List.fold_left ( +. ) 0.0
      (List.map total
         [ "batch.parse_ref"; "batch.chars_ref"; "batch.rgcorr_ref";
           "placer.place"; "exact.estimate"; "mc.prepare"; "mc.moments";
           "tail.estimate" ])
  in
  (!pairs, busy)

(* ---------- optimize-delta: one `rgleak optimize` op ---------- *)

let optimize_op chars jobs =
  let n, mix, budget, seed =
    match lines_of (read_file (input "optimize.args")) with
    | [ n; mix; budget; seed ] ->
      (int_of_string n, mix, float_of_string budget, int_of_string seed)
    | _ -> failwith "optimize.args: want N, MIX, BUDGET, SEED"
  in
  let char_file = input "char.txt" in
  Char_io.save ~path:char_file chars;
  let chars = timed "optimize.char_load" (fun () -> Char_io.load ~path:char_file) in
  let mix =
    List.map
      (fun kv ->
        match String.split_on_char ':' kv with
        | [ k; v ] -> (k, float_of_string v)
        | _ -> failwith ("bad mix entry " ^ kv))
      (String.split_on_char ',' mix)
  in
  let histogram = Histogram.of_weights mix in
  let p = p_of chars histogram None in
  let rng = Rng.create ~seed () in
  let placed =
    timed "placer.place_opt" (fun () -> Generator.random_placed ~histogram ~n ~rng ())
  in
  record "placer.place" (List.hd (get "placer.place_opt"));
  let rg = Random_gate.create ~chars ~histogram ~p () in
  let rgcorr =
    timed "optimize.rgcorr" (fun () -> Rg_correlation.create ~chars ~rg ~p ())
  in
  let corr =
    Corr_model.create (Corr_model.Spherical { dmax = 120.0 })
      Process_param.default_channel_length
  in
  let distance_points = 512 in
  let used =
    Array.of_list
      (List.sort_uniq compare
         (Array.to_list
            (Array.map
               (fun inst -> inst.Netlist.cell_index)
               placed.Placer.netlist.Netlist.instances)))
  in
  let dstep = Estimator_exact.distance_grid ~distance_points placed.Placer.layout in
  let cache = open_cache "trace-opt" in
  let tables () =
    Memo.delta_tables ~cache ~corr ~rgcorr ~used ~distance_points ~dstep
      ~key_parts:[ "corr=spherical:120" ] ()
  in
  ignore (timed "memo.delta_tables_miss" tables);
  let cov = timed "memo.delta_tables" tables in
  let st =
    timed "delta.create" (fun () ->
        Delta.create ~distance_points ~cov ~jobs
          ~flavors:(Array.make n Vt_correction.Lvt) ~corr ~rgcorr placed)
  in
  let r = timed "optimize.run" (fun () -> Optimize.run ~budget st) in
  for i = 0 to 19 do
    ignore
      (timed "delta.swap" (fun () ->
           Delta.apply_swap st ~cell:(i * 997 mod n) ~flavor:Vt_correction.Svt))
  done;
  ignore
    (timed "delta.exact" (fun () ->
         Estimator_exact.estimate ~distance_points ~jobs ~corr ~rgcorr placed));
  let busy =
    List.fold_left ( +. ) 0.0
      (List.map total
         [ "optimize.char_load"; "placer.place_opt"; "optimize.rgcorr";
           "memo.delta_tables"; "delta.create"; "optimize.run" ])
  in
  (List.length r.Optimize.moves, n, busy)

(* ---------- entry points ---------- *)

let profile jobs cap =
  Parallel.set_default_jobs jobs;
  (* The first default_library call is the cold library
     characterization every fresh cache pays for once. *)
  let chars = timed "characterize.library" Characterize.default_library in
  let reads, warm_busy = serve_warm chars in
  let writes, churn_busy = serve_churn chars cap in
  let pairs, ref_busy = batch_ref () in
  let swaps, opt_n, opt_busy = optimize_op chars jobs in
  emit_median ~scale:1.0 ~unit_:"s" "characterize.library_s" "characterize.library";
  emit_median ~scale:1e6 ~unit_:"us" "batch.parse_manifest_us" "batch.parse_manifest";
  emit_median "batch.fresh_engine_ms" "batch.fresh_engine";
  emit_median "batch.warm_engine_ms" "batch.warm_engine";
  emit_median ~scale:1e6 ~unit_:"us" "batch.report_us" "batch.report";
  emit_median ~scale:1e6 ~unit_:"us" "batch.parse_churn_us" "batch.parse_churn";
  emit_median "batch.churn_request_ms" "batch.churn_request";
  emit_median "memo.characterization_ms" "memo.characterization";
  emit_median "memo.correlation_hit_ms" "memo.correlation_hit";
  emit_median "memo.correlation_miss_ms" "memo.correlation_miss";
  emit_median "memo.linear_memo_hit_ms" "memo.linear_memo_hit";
  emit_median "memo.linear_memo_miss_ms" "memo.linear_memo_miss";
  emit_median "memo.delta_tables_ms" "memo.delta_tables";
  emit_median "cache.get_ms" "cache.get";
  emit_median "cache.put_ms" "cache.put";
  let both f = float_of_int (f reads + f writes) in
  emit "cache.hits" (both (fun s -> s.Cache.hits)) "count";
  emit "cache.misses" (both (fun s -> s.Cache.misses)) "count";
  emit "cache.evictions" (both (fun s -> s.Cache.evictions)) "count";
  emit "cache.bytes_read" (both (fun s -> s.Cache.bytes_read)) "B";
  emit "cache.bytes_written" (both (fun s -> s.Cache.bytes_written)) "B";
  emit_median "char_io.of_string_ms" "char_io.of_string";
  emit_median "rg_correlation.create_ms" "rg_correlation.create";
  List.iter
    (fun t -> emit_median ("estimate.run_ms." ^ t) ("estimate.run." ^ t))
    [ "linear"; "int2d"; "polar"; "auto" ];
  emit_total "exact.estimate_ms" "exact.estimate";
  emit "exact.pairs" pairs "count";
  emit "exact.pairs_per_s" (pairs /. total "exact.estimate") "1/s";
  emit_total "mc.prepare_ms" "mc.prepare";
  emit_total "mc.moments_ms" "mc.moments";
  emit_total "tail.estimate_ms" "tail.estimate";
  emit_total "placer.place_ms" "placer.place";
  emit_median "delta.create_ms" "delta.create";
  emit_median "delta.swap_ms" "delta.swap";
  emit "delta.swaps" (float_of_int swaps) "count";
  emit_median "optimize.run_ms" "optimize.run";
  emit_median "delta.exact_ms" "delta.exact";
  emit "delta.create_over_exact" (median "delta.create" /. median "delta.exact") "ratio";
  emit "delta.gates" (float_of_int opt_n) "count";
  emit_median "shed.saving_ms" "shed.saving";
  emit_stat median ~scale:1.0 ~unit_:"ratio" "serve.exact_kernel_share"
    "serve.exact_kernel_share";
  emit "busy.serve-warm_ms" (warm_busy *. 1000.0) "ms";
  emit "busy.serve-churn_ms" (churn_busy *. 1000.0) "ms";
  emit "busy.batch-ref_ms" (ref_busy *. 1000.0) "ms";
  emit "busy.optimize-delta_ms" (opt_busy *. 1000.0) "ms"

let parse files =
  List.iter
    (fun f ->
      match Batch.parse_manifest (read_file f) with
      | scens -> Printf.printf "%s\t%d\n" f (List.length scens)
      | exception Rgleak_num.Guard.Error d ->
        Printf.eprintf "%s: %s\n" f (Rgleak_num.Guard.to_string d);
        exit 2)
    files

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "profile"; d; jobs; cap ] ->
    dir := d;
    profile (int_of_string jobs) (int_of_string cap)
  | "parse" :: files -> parse files
  | _ ->
    prerr_endline "usage: tracer.exe profile DIR JOBS CACHE_CAP | parse FILE...";
    exit 2
