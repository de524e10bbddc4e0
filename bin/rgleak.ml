(* Command-line interface to the full-chip leakage estimator.

   rgleak cells                         -- library inventory
   rgleak characterize --cell NAND2_X1  -- per-state characterization
   rgleak estimate ...                  -- early-mode estimate from a mix
   rgleak signoff --benchmark c7552     -- late-mode vs true leakage
   rgleak yield -n 100000 --budget 400  -- distribution quantiles / yield
   rgleak validate                      -- statistical validation harness *)

open Cmdliner
open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core

(* ---------- shared argument parsing ---------- *)

(* Argument-parsing failures raise Guard.Error (Invalid_input _): the
   per-command diagnostics handler maps each diagnostic class to its
   own exit code (invalid input 2, numeric 3, internal 4). *)

module Batch = Rgleak_cache.Batch
module Cache = Rgleak_cache.Cache
module Json = Rgleak_obs.Json

let corr_arg =
  let doc =
    "Within-die spatial correlation model: linear:DMAX, spherical:DMAX, \
     exp:RANGE, gauss:RANGE or texp:RANGE:DMAX (micrometres)."
  in
  Arg.(value & opt string "spherical:120" & info [ "corr" ] ~docv:"MODEL" ~doc)

let p_arg =
  let doc =
    "Signal probability in [0,1]; omit to use the conservative \
     maximum-leakage setting of the paper (section 2.1.4)."
  in
  Arg.(value & opt (some float) None & info [ "p" ] ~docv:"P" ~doc)

let method_arg =
  let doc = "Estimation method: auto, linear, int2d or polar." in
  Arg.(value & opt string "auto" & info [ "method" ] ~docv:"METHOD" ~doc)

let vt_arg =
  let doc = "Apply the random-dopant V_t multiplicative mean correction." in
  Arg.(value & flag & info [ "vt" ] ~doc)

(* The design inputs of the paper's estimator: gate count, cell mix,
   correlation model and signal probability, as given on the command
   line.  They are validated only by Batch.parse_scenario, the manifest
   parser, so a flag accepts exactly what its manifest field does. *)
type design = { n : int; mix : string; corr : string; p : float option }

let default_mix = "INV_X1:20,NAND2_X1:18,NOR2_X1:8,XOR2_X1:4,DFF_X1:9"

let design_term ~default_mix =
  let n =
    Arg.(required & opt (some int) None & info [ "n" ] ~docv:"GATES" ~doc:"Gate count.")
  in
  let mix =
    Arg.(
      value & opt string default_mix
      & info [ "mix" ] ~docv:"MIX"
          ~doc:"Cell-usage mix as CELL:WEIGHT pairs, comma separated.")
  in
  Term.(const (fun n mix corr p -> { n; mix; corr; p }) $ n $ mix $ corr_arg $ p_arg)

let jnum x = Json.Num x
let jint i = Json.Num (float_of_int i)
let opt_field k f = Option.fold ~none:[] ~some:(fun v -> [ (k, f v) ])

(* The validated scenario of a design plus further manifest [fields]. *)
let scenario_of ?(fields = []) d =
  Batch.parse_scenario
    (Json.Obj
       ([ ("n", jint d.n); ("mix", Json.Str d.mix); ("corr", Json.Str d.corr) ]
       @ opt_field "p" jnum d.p @ fields))

let corr_model family =
  Corr_model.create family Process_param.default_channel_length

(* The early-mode problem of a scenario on the default near-square die. *)
let square_spec (s : Batch.scenario) =
  let layout = Layout.square ~n:s.Batch.s_n () in
  {
    Estimate.histogram = Histogram.of_weights s.Batch.s_mix;
    n = s.Batch.s_n;
    width = Layout.width layout;
    height = Layout.height layout;
  }

let p_or_maximizing chars histogram = function
  | Some p -> p
  | None ->
    Signal_prob.maximizing_p chars ~weights:(Histogram.to_array histogram)

(* A path that cannot be read or written is bad input, not a bug. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> Guard.invalid msg

let write_file path text =
  try Out_channel.with_open_bin path (fun oc -> output_string oc text)
  with Sys_error msg -> Guard.invalid msg

(* The result cache: --cache-dir, plus --no-cache where caching is on by
   default.  The term yields an opener taking the size cap, run inside
   the diagnostics handler. *)
let cache_term ~by_default ~doc =
  let dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the on-disk cache (compute everything in-process).")
  in
  let open_ dir no_cache cap_bytes =
    let dir =
      if no_cache then None
      else if by_default then Some (Option.value dir ~default:(Cache.default_dir ()))
      else dir
    in
    Option.map
      (fun dir ->
        Cache.open_
          ~on_corrupt:(fun d ->
            Printf.eprintf "rgleak: warning: %s\n%!" (Guard.to_string d))
          ?cap_bytes ~dir ())
      dir
  in
  if by_default then Term.(const open_ $ dir $ no_cache)
  else Term.(const (fun dir -> open_ dir false) $ dir)

let char_arg =
  let doc =
    "Load a saved library characterization instead of recomputing it \
     (see 'characterize --save')."
  in
  Arg.(value & opt (some string) None & info [ "char" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sections (library characterization, \
     the O(n^2) exact reference, Monte Carlo replicas).  Defaults to the \
     runtime's recommended domain count.  Results are bit-identical for \
     every value."
  in
  let pos_int =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a positive job count, got %s" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some pos_int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs jobs = Option.iter Parallel.set_default_jobs jobs

(* ---------- telemetry flags (shared by every subcommand) ---------- *)

module Obs = Rgleak_obs.Obs
module Obs_export = Rgleak_obs.Export

module Ledger = Rgleak_obs.Ledger

type trace_opts = {
  trace : bool;
  trace_json : string option;
  trace_folded : string option;
  metrics_json : string option;
  ledger : string option;
}

let trace_active t =
  t.trace || t.trace_json <> None || t.trace_folded <> None
  || t.metrics_json <> None || t.ledger <> None

let trace_term =
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Enable telemetry and print the span tree and counter tables on \
             stderr.  Tracing never changes any numerical result.")
  in
  let trace_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write a Chrome trace-event file (open in \
             chrome://tracing or ui.perfetto.dev).")
  in
  let trace_folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-folded" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write collapsed stacks (span self-times) \
             for flamegraph.pl or speedscope.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Enable telemetry and write a flat metrics JSON document.")
  in
  let ledger =
    Arg.(
      value
      & opt ~vopt:(Some Ledger.default_path) (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Enable telemetry and append one compact rgleak-run/1 record \
                (counters, histogram summaries, exit class) to $(docv) \
                (default %s) when the run finishes.  Aggregate with $(b,rgleak \
                report)."
               Ledger.default_path))
  in
  Term.(
    const (fun trace trace_json trace_folded metrics_json ledger ->
        { trace; trace_json; trace_folded; metrics_json; ledger })
    $ trace $ trace_json $ trace_folded $ metrics_json $ ledger)

(* The ledger records the subcommand by name: the first non-flag
   argument is exactly cmdliner's group selector. *)
let subcommand_of_argv () =
  let rec find i =
    if i >= Array.length Sys.argv then "rgleak"
    else if String.length Sys.argv.(i) > 0 && Sys.argv.(i).[0] <> '-' then
      Sys.argv.(i)
    else find (i + 1)
  in
  find 1

let with_telemetry t run =
  if not (trace_active t) then run ()
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    (* Classified before with_diagnostics sees the exception, so the
       ledger can record the exit class of a failed run. *)
    let exit_class = function
      | Guard.Error d -> Guard.class_name d
      | Invalid_argument _ | Failure _ -> "invalid-input"
      | _ -> "internal"
    in
    let finish class_ =
      Obs.set_enabled false;
      let snap = Obs.snapshot () in
      if snap.Obs.dropped_spans > 0 then
        Printf.eprintf
          "rgleak: warning: telemetry dropped %d spans (per-domain cap); \
           span totals are incomplete\n\
           %!"
          snap.Obs.dropped_spans;
      if snap.Obs.dropped_tracks > 0 then
        Printf.eprintf
          "rgleak: warning: telemetry dropped %d track samples (per-domain \
           cap)\n\
           %!"
          snap.Obs.dropped_tracks;
      if t.trace then Obs_export.report stderr snap;
      Option.iter
        (fun path ->
          Obs_export.write_chrome_trace ~path snap;
          Printf.eprintf "trace: wrote Chrome trace to %s\n%!" path)
        t.trace_json;
      Option.iter
        (fun path ->
          Obs_export.write_folded ~path snap;
          Printf.eprintf "trace: wrote collapsed stacks to %s\n%!" path)
        t.trace_folded;
      Option.iter
        (fun path ->
          Obs_export.write_metrics_json ~path snap;
          Printf.eprintf "trace: wrote metrics to %s\n%!" path)
        t.metrics_json;
      Option.iter
        (fun path ->
          let line =
            Ledger.line
              ~subcommand:(subcommand_of_argv ())
              ~args:(List.tl (Array.to_list Sys.argv))
              ~exit_class:class_ ~t:(Unix.gettimeofday ()) snap
          in
          match Ledger.append ~path line with
          | Ok () -> ()
          | Error msg ->
            Printf.eprintf "rgleak: warning: ledger append failed: %s\n%!" msg)
        t.ledger
    in
    match run () with
    | v ->
      finish "ok";
      v
    | exception e ->
      finish (exit_class e);
      raise e
  end

(* ---------- robustness flags (shared by every subcommand) ---------- *)

type robust_opts = { fault_specs : string list; strict : bool }

let robust_term =
  let fault_specs =
    Arg.(
      value & opt_all string []
      & info [ "fault-spec" ] ~docv:"SITE:PROB:SEED"
          ~doc:
            "Deterministically inject faults at an instrumented site \
             (parallel, cholesky, quadrature, linear.f, cache): each probe at \
             SITE \
             fails with probability PROB, decided by a counter-indexed hash \
             of SEED.  Repeatable.  Identical specs reproduce the identical \
             fault sequence; disarmed probes cost one atomic load.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail fast: exit with the diagnostic's code on the first numeric \
             failure instead of degrading to another estimator tier.")
  in
  Term.(
    const (fun fault_specs strict -> { fault_specs; strict })
    $ fault_specs $ strict)

(* Exit codes: 0 success, 2 invalid input, 3 numeric breakdown, 4 internal
   bug.  (cmdliner reserves 124/125 for CLI-syntax and uncaught-exception
   errors.)  Fault specs are parsed and armed inside the protected region
   so a malformed --fault-spec exits 2 like any other bad argument. *)
let with_diagnostics ro run =
  let body () =
    let specs =
      List.map
        (fun s ->
          match Guard.Fault.parse_spec s with
          | Ok spec -> spec
          | Error msg -> Guard.invalid msg)
        ro.fault_specs
    in
    Guard.Fault.configure specs;
    Fun.protect run ~finally:Guard.Fault.clear
  in
  match Guard.protect body with
  | Ok () -> ()
  | Error d ->
    Printf.eprintf "rgleak: %s\n%!" (Guard.to_string d);
    exit (Guard.exit_code d)

let chars_of = function
  | None -> Characterize.default_library ()
  | Some path -> Char_io.load ~path

let print_result label (r : Estimate.result) =
  Printf.printf "%s\n" label;
  Printf.printf "  gates          : %d\n" r.Estimate.n;
  Printf.printf "  mean leakage   : %.4g nA (%.4g uA)\n" r.Estimate.mean
    (r.Estimate.mean /. 1000.0);
  Printf.printf "  std deviation  : %.4g nA (%.2f%% of mean)\n" r.Estimate.std
    (100.0 *. r.Estimate.std /. r.Estimate.mean);
  Printf.printf "  mean + 3 sigma : %.4g nA\n"
    (r.Estimate.mean +. (3.0 *. r.Estimate.std));
  Printf.printf "  method         : %s\n" r.Estimate.method_used;
  Printf.printf "  Vt mean factor : %.4f\n" r.Estimate.vt_mean_factor

(* ---------- cells ---------- *)

let cells_cmd =
  let run ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let env = Rgleak_device.Mosfet.default_env in
    Printf.printf "%-12s %6s %5s %5s %12s %12s\n" "cell" "states" "devs"
      "depth" "min leak nA" "max leak nA";
    Array.iter
      (fun cell ->
        let lo = ref infinity and hi = ref 0.0 in
        Array.iter
          (fun state ->
            let i = Cell.leakage ~env cell state in
            if i < !lo then lo := i;
            if i > !hi then hi := i)
          (Cell.states cell);
        Printf.printf "%-12s %6d %5d %5d %12.4f %12.4f\n" cell.Cell.name
          (Cell.num_states cell) (Cell.device_count cell)
          (Cell.max_stack_depth cell) !lo !hi)
      Library.cells;
    Printf.printf "%d cells total\n" Library.size
  in
  Cmd.v (Cmd.info "cells" ~doc:"List the standard-cell library")
    Term.(const run $ robust_term $ trace_term)

(* ---------- characterize ---------- *)

let characterize_cmd =
  let cell_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cell" ] ~docv:"NAME" ~doc:"Characterize only this cell.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the full-library characterization to a file for reuse.")
  in
  let temp_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "temp" ] ~docv:"CELSIUS"
          ~doc:"Characterize at this junction temperature (default 26.85 C = 300 K).")
  in
  let run cell_name save temp jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    (* Validate the cell name before paying for characterization. *)
    let cell_index =
      match cell_name with
      | None -> None
      | Some name -> (
        try Some (Library.index_of name)
        with Not_found -> Guard.invalid (Printf.sprintf "unknown cell %S" name))
    in
    let chars =
      match temp with
      | None -> Characterize.default_library ()
      | Some celsius ->
        Characterize.characterize_library
          ~env:(Rgleak_device.Mosfet.env_at ~temp_k:(273.15 +. celsius) ())
          ?jobs ~param:Process_param.default_channel_length ~seed:1729 ()
    in
    (match save with
    | None -> ()
    | Some path ->
      write_file path (Char_io.to_string chars);
      Printf.printf "saved characterization to %s\n" path);
    let selected =
      match cell_index with
      | None -> Array.to_list chars
      | Some idx -> [ chars.(idx) ]
    in
    List.iter
      (fun (ch : Characterize.cell_char) ->
        Printf.printf "%s\n" ch.Characterize.cell.Cell.name;
        Printf.printf
          "  %5s %12s %12s %12s %12s %10s %10s %12s\n" "state" "mu(fit)"
          "sigma(fit)" "mu(MC)" "sigma(MC)" "b" "c" "rms(ln)";
        Array.iter
          (fun (sc : Characterize.state_char) ->
            Printf.printf
              "  %5d %12.5f %12.5f %12.5f %12.5f %10.5f %10.6f %12.5f\n"
              sc.Characterize.state_index sc.Characterize.mu_analytic
              sc.Characterize.sigma_analytic sc.Characterize.mu_mc
              sc.Characterize.sigma_mc sc.Characterize.fit.Mgf.b
              sc.Characterize.fit.Mgf.c sc.Characterize.fit_rms_log)
          ch.Characterize.states)
      selected
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Pre-characterize cells: per-state fitted and MC leakage statistics")
    Term.(
      const run $ cell_arg $ save_arg $ temp_arg $ jobs_arg $ robust_term
      $ trace_term)

(* ---------- estimate (early mode) ---------- *)

let estimate_cmd =
  let width_arg =
    Arg.(
      value & opt (some float) None
      & info [ "width" ] ~docv:"UM" ~doc:"Die width in micrometres (default: square die from gate count).")
  in
  let height_arg =
    Arg.(
      value & opt (some float) None
      & info [ "height" ] ~docv:"UM" ~doc:"Die height in micrometres.")
  in
  (* Under tracing, [estimate] additionally exercises every estimator
     tier on the same problem, so one trace shows the linear layout
     estimator, the integral tier and — for gate counts small enough
     to stay quick — the O(n^2) exact reference on a seeded random
     placement, which also lights up the pool worker lanes. *)
  let profile_tiers ?p ~chars ~corr ~histogram ~n ~width ~height () =
    Obs.span "estimate.profile_tiers" @@ fun () ->
    let ctx = Estimate.context ?p ~chars ~corr ~histogram () in
    let rgcorr = Estimate.correlation ctx in
    let layout = Layout.of_dims ~n ~width ~height in
    ignore (Estimator_linear.estimate ~corr ~rgcorr ~layout ());
    if Estimator_integral.polar_applicable ~corr ~width ~height then
      ignore (Estimator_integral.polar ~corr ~rgcorr ~n ~width ~height ())
    else ignore (Estimator_integral.rect_2d ~corr ~rgcorr ~n ~width ~height ());
    if n <= 5000 then begin
      let rng = Rng.create ~seed:7919 () in
      let placed = Generator.random_placed ~histogram ~n ~rng () in
      ignore (Estimator_exact.estimate ~corr ~rgcorr placed);
      prerr_endline "trace: profiled linear, integral and exact estimator tiers"
    end
    else
      prerr_endline
        "trace: profiled linear and integral tiers (exact skipped for n > 5000)"
  in
  let run design width height method_ vt char_file jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    (* Parse every argument before the (expensive) characterization so
       bad input fails fast with exit code 2. *)
    let tier = Batch.tier_name (Batch.method_of_name method_) in
    let s =
      scenario_of design
        ~fields:
          ([ ("tier", Json.Str tier); ("vt", Json.Bool vt) ]
          @ opt_field "width" jnum width
          @ opt_field "height" jnum height)
    in
    let corr = corr_model s.Batch.s_family in
    let spec = square_spec s in
    let spec =
      match s.Batch.s_dims with
      | Some (width, height) -> { spec with Estimate.width; height }
      | None -> spec
    in
    let { Estimate.histogram; n; width; height } = spec in
    let p = s.Batch.s_p in
    (* The requested tier first, then the fallbacks in order. *)
    let tiers =
      List.map
        (fun t -> (Batch.tier_name t, Batch.method_selector t))
        (s.Batch.s_tier
        :: List.filter (( <> ) s.Batch.s_tier)
             [ Batch.Linear; Batch.Integral_polar; Batch.Integral_2d ])
    in
    let chars = chars_of char_file in
    let ctx = Estimate.context ?p ~chars ~corr ~histogram () in
    (* Best-effort degradation: when the requested tier breaks down
       numerically and --strict is off, report it on stderr and fall
       back through the remaining tiers; --strict turns the first
       failure into exit code 3. *)
    let rec attempt = function
      | [] -> Guard.numeric ~site:"estimate" "every estimator tier failed"
      | (name, m) :: rest -> (
        match Estimate.run_result ~method_:m ~with_vt:s.Batch.s_vt ctx spec with
        | Ok r -> r
        | Error d ->
          if ro.strict || rest = [] then raise (Guard.Error d);
          Printf.eprintf "rgleak: tier %s failed (%s); degrading to %s\n%!"
            name (Guard.to_string d)
            (fst (List.hd rest));
          attempt rest)
    in
    let r = attempt tiers in
    print_result
      (Printf.sprintf "early-mode estimate (%d gates on %.0f x %.0f um)" n
         width height)
      r;
    if trace_active tr then
      profile_tiers ?p ~chars ~corr ~histogram ~n ~width ~height ()
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Early-mode full-chip leakage estimate from high-level characteristics")
    Term.(
      const run
      $ design_term
          ~default_mix:
            "INV_X1:20,NAND2_X1:18,NOR2_X1:8,AND2_X1:8,OR2_X1:5,XOR2_X1:4,BUF_X1:5,DFF_X1:9"
      $ width_arg $ height_arg $ method_arg $ vt_arg $ char_arg $ jobs_arg
      $ robust_term $ trace_term)

(* ---------- signoff (late mode on a benchmark) ---------- *)

let signoff_cmd =
  let bench_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "benchmark" ] ~docv:"NAME"
          ~doc:"ISCAS85 benchmark name (c432 .. c7552).")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-file" ] ~docv:"FILE"
          ~doc:"Sign off a circuit from an ISCAS .bench file (technology-mapped                 onto the library, then placed).")
  in
  let vfile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "verilog-file" ] ~docv:"FILE"
          ~doc:"Sign off a gate-level structural Verilog netlist (must \
                instantiate library cells).")
  in
  let placement_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "placement" ] ~docv:"FILE"
          ~doc:"Use this placement file (rgleak-placement format) instead of \
                placing randomly; applies to --bench-file/--verilog-file.")
  in
  let save_placement_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-placement" ] ~docv:"FILE"
          ~doc:"Write the placement used for the estimate to a file.")
  in
  let true_arg =
    Arg.(
      value & flag
      & info [ "true-leakage" ]
          ~doc:"Also run the O(n^2) exact pairwise reference and report the error.")
  in
  let run bench file vfile placement save_placement corr p method_ vt with_true
      jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    (* Validate the source selection and parse every argument before the
       (expensive) characterization so bad input fails fast. *)
    (match (bench, file, vfile) with
    | Some _, None, None | None, Some _, None | None, None, Some _ -> ()
    | _ ->
      Guard.invalid
        "give exactly one of --benchmark, --bench-file or --verilog-file");
    let corr = corr_model (Batch.parse_family corr) in
    let method_ = Batch.method_selector (Batch.method_of_name method_) in
    let p = Option.map Batch.check_p p in
    let chars = Characterize.default_library () in
    let place_netlist netlist label =
      match placement with
      | Some path ->
        let pl = Placement_io.load ~path in
        let placed = Placement_io.apply netlist pl in
        Printf.printf "applied placement %s (max snap %.2f um)\n" path
          (Placement_io.max_snap_distance placed pl);
        (placed, label)
      | None ->
        let die_area = Netlist.total_area netlist /. 0.7 in
        let side = sqrt die_area in
        let layout =
          Layout.of_dims ~n:(Netlist.size netlist) ~width:side ~height:side
        in
        let rng = Rng.create ~seed:7919 () in
        (Placer.place ~strategy:Placer.Random ~rng netlist layout, label)
    in
    let placed, label =
      match (bench, file, vfile) with
      | Some name, None, None ->
        let spec =
          try Benchmarks.find name
          with Not_found ->
            Guard.invalid (Printf.sprintf "unknown benchmark %S" name)
        in
        ( Benchmarks.placed spec,
          Printf.sprintf "late-mode sign-off of %s (%s)" spec.Benchmarks.name
            spec.Benchmarks.description )
      | None, Some path, None ->
        let parsed = Bench_format.parse_file path in
        let netlist, report = Techmap.map parsed in
        Printf.printf
          "mapped %s: %d source gates -> %d library cells (%d decomposed, %d added)\n"
          parsed.Bench_format.name
          (Bench_format.gate_count parsed)
          (Netlist.size netlist) report.Techmap.decomposed report.Techmap.added;
        place_netlist netlist
          (Printf.sprintf "late-mode sign-off of %s (from %s)"
             parsed.Bench_format.name path)
      | None, None, Some path ->
        let netlist = Verilog.to_netlist (Verilog.parse_file path) in
        place_netlist netlist
          (Printf.sprintf "late-mode sign-off of %s (from %s)"
             netlist.Netlist.name path)
      | _ -> assert false (* rejected above *)
    in
    let r = Estimate.late ?p ~method_ ~with_vt:vt ~chars ~corr placed in
    (match save_placement with
    | None -> ()
    | Some path ->
      Placement_io.save ~path (Placement_io.of_placed placed);
      Printf.printf "saved placement to %s\n" path);
    print_result label r;
    if with_true then begin
      let tr = Estimate.true_leakage ?p ?jobs ~chars ~corr placed in
      Printf.printf "  true std       : %.4g nA (RG error %.2f%%)\n"
        tr.Estimate.std
        (100.0 *. Float.abs ((r.Estimate.std -. tr.Estimate.std) /. tr.Estimate.std))
    end
  in
  Cmd.v
    (Cmd.info "signoff"
       ~doc:"Late-mode estimate of a placed ISCAS85-like benchmark")
    Term.(
      const run $ bench_arg $ file_arg $ vfile_arg $ placement_arg
      $ save_placement_arg $ corr_arg $ p_arg $ method_arg $ vt_arg $ true_arg
      $ jobs_arg $ robust_term $ trace_term)

(* ---------- yield ---------- *)

let yield_cmd =
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"UA"
          ~doc:"Leakage budget in microamperes; reports the parametric yield.")
  in
  let run design budget ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let s = scenario_of design in
    let corr = corr_model s.Batch.s_family in
    let spec = square_spec s in
    let chars = Characterize.default_library () in
    let r = Estimate.early ?p:s.Batch.s_p ~with_vt:true ~chars ~corr spec in
    let d = Distribution.of_estimate r in
    print_result (Printf.sprintf "leakage distribution (%d gates)" spec.n) r;
    Printf.printf "quantiles (lognormal):\n";
    List.iter
      (fun q ->
        Printf.printf "  P%-5.1f : %10.2f uA\n" (100.0 *. q)
          (Distribution.quantile d q /. 1000.0))
      [ 0.5; 0.9; 0.99; 0.999 ];
    (match budget with
    | None -> ()
    | Some b ->
      Printf.printf "yield at %.1f uA budget: %.2f%%\n" b
        (100.0 *. Distribution.yield d ~budget:(b *. 1000.0)));
    Printf.printf "budget for 99%% yield: %.1f uA\n"
      (Distribution.budget_for_yield d ~yield:0.99 /. 1000.0)
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:"Leakage distribution quantiles and parametric yield vs a budget")
    Term.(
      const run $ design_term ~default_mix $ budget_arg $ robust_term
      $ trace_term)

(* ---------- sensitivity ---------- *)

let sensitivity_cmd =
  let run design char_file ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let s = scenario_of design in
    let corr = corr_model s.Batch.s_family in
    let chars = chars_of char_file in
    let report =
      Sensitivity.analyze ~chars ~corr ?p:s.Batch.s_p (square_spec s)
    in
    Format.printf "%a" Sensitivity.pp report
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"What-if report: how the leakage statistics respond to mix, die \
             and gate-count changes")
    Term.(
      const run $ design_term ~default_mix $ char_arg $ robust_term $ trace_term)

(* ---------- convert ---------- *)

let convert_cmd =
  let bench_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "benchmark" ] ~docv:"NAME"
          ~doc:"ISCAS85 benchmark to synthesize (c432 .. c7552).")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let format_arg =
    Arg.(
      value & opt string "bench"
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: bench or verilog.")
  in
  let run name output format ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let spec =
      try Benchmarks.find name
      with Not_found ->
        Guard.invalid (Printf.sprintf "unknown benchmark %S" name)
    in
    (match format with
    | "bench" | "verilog" -> ()
    | f ->
      Guard.invalid
        (Printf.sprintf "unknown format %S (expected bench or verilog)" f));
    let netlist = Benchmarks.netlist spec in
    let text, gates =
      match format with
      | "bench" ->
        let bench = Techmap.netlist_to_bench netlist in
        (Bench_format.to_string bench, Bench_format.gate_count bench)
      | _ ->
        (Verilog.to_string (Verilog.of_netlist netlist), Netlist.size netlist)
    in
    write_file output text;
    Printf.printf "wrote %s (%d gates, %s) to %s\n" spec.Benchmarks.name gates
      format output
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Export a synthesized benchmark netlist to .bench or Verilog")
    Term.(const run $ bench_arg $ out_arg $ format_arg $ robust_term $ trace_term)

(* ---------- corners ---------- *)

let corners_cmd =
  let run design ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let s = scenario_of design in
    let results =
      Corners.analyze ?p:s.Batch.s_p ~param:Process_param.default_channel_length
        ~corr:(corr_model s.Batch.s_family) ~spec:(square_spec s) ()
    in
    Format.printf "%a" Corners.pp results;
    let w = Corners.worst results in
    Format.printf "worst corner: %s at %.2f uA (mean + 3 sigma)@."
      w.Corners.corner.Corners.name
      (w.Corners.p3sigma /. 1000.0)
  in
  Cmd.v
    (Cmd.info "corners"
       ~doc:"Leakage statistics across process/temperature corners")
    Term.(const run $ design_term ~default_mix $ robust_term $ trace_term)

(* ---------- profile ---------- *)

let profile_cmd =
  let run design char_file ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let s = scenario_of design in
    let corr = corr_model s.Batch.s_family in
    let { Estimate.histogram; n; width; height } = square_spec s in
    let chars = chars_of char_file in
    let ctx = Estimate.context ?p:s.Batch.s_p ~chars ~corr ~histogram () in
    let prof =
      Variance_profile.compute ~corr ~rgcorr:(Estimate.correlation ctx) ~n
        ~width ~height ()
    in
    Format.printf "variance decomposition by pair separation:@.%a"
      Variance_profile.pp prof;
    Format.printf "half of the variance within %.1f um@."
      (Variance_profile.radius_for_share prof ~share:0.5)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Decompose the leakage variance by gate-pair separation")
    Term.(
      const run $ design_term ~default_mix $ char_arg $ robust_term $ trace_term)

(* ---------- map ---------- *)

let map_cmd =
  let tiles_arg =
    Arg.(value & opt int 12 & info [ "tiles" ] ~docv:"K" ~doc:"Tiles per axis.")
  in
  let samples_arg =
    Arg.(value & opt int 400 & info [ "samples" ] ~docv:"DIES" ~doc:"Sampled dies.")
  in
  let run design char_file tiles samples ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let s = scenario_of design in
    let corr = corr_model s.Batch.s_family in
    let { Estimate.histogram; n; width; height } = square_spec s in
    let chars = chars_of char_file in
    let p = p_or_maximizing chars histogram s.Batch.s_p in
    let rg = Random_gate.create ~chars ~histogram ~p () in
    let map = Leakage_map.compute ~tiles ~samples ~rg ~corr ~n ~width ~height () in
    print_string (Leakage_map.render map);
    Printf.printf "hotspot ratio (peak tile / mean tile): %.3f over %d dies\n"
      map.Leakage_map.hotspot_ratio map.Leakage_map.samples
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Spatial leakage map: per-tile statistics and the hotspot ratio")
    Term.(
      const run $ design_term ~default_mix $ char_arg $ tiles_arg $ samples_arg
      $ robust_term $ trace_term)

(* ---------- sleep ---------- *)

let sleep_cmd =
  let bench_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "benchmark" ] ~docv:"NAME"
          ~doc:"ISCAS85 benchmark to search (c432 .. c7552).")
  in
  let restarts_arg =
    Arg.(value & opt int 8 & info [ "restarts" ] ~docv:"K" ~doc:"Greedy restarts.")
  in
  let run name restarts char_file ro tr =
    with_diagnostics ro @@ fun () ->
    with_telemetry tr @@ fun () ->
    let spec =
      try Benchmarks.find name
      with Not_found ->
        Guard.invalid (Printf.sprintf "unknown benchmark %S" name)
    in
    let chars = chars_of char_file in
    let nl = Benchmarks.netlist spec in
    let sim = Sleep_vector.compile ~chars nl in
    let rng = Rng.create ~seed:11 () in
    let r = Sleep_vector.search ~restarts ~rng sim in
    Printf.printf "sleep vector for %s (%d control bits):\n" spec.Benchmarks.name
      (Sleep_vector.num_controls sim);
    Printf.printf "  random-vector mean leakage : %.1f nA\n" r.Sleep_vector.random_mean;
    Printf.printf "  best vector leakage        : %.1f nA (%.1f%% lower)\n"
      r.Sleep_vector.cost
      (100.0 *. r.Sleep_vector.improvement);
    Printf.printf "  cost evaluations           : %d\n" r.Sleep_vector.evaluations;
    let bits =
      String.concat ""
        (List.map (fun b -> if b then "1" else "0")
           (Array.to_list r.Sleep_vector.vector))
    in
    Printf.printf "  vector (PIs then flops)    : %s\n" bits
  in
  Cmd.v
    (Cmd.info "sleep"
       ~doc:"Search for the minimum-leakage standby vector of a benchmark")
    Term.(const run $ bench_arg $ restarts_arg $ char_arg $ robust_term $ trace_term)

(* ---------- golden regression (validate, tail, optimize) ---------- *)

(* Diffs [current] against the committed baseline at [--golden path],
   if given, and prints the verdict; false on breaking drift. *)
let golden_ok golden current =
  let module Golden_diff = Rgleak_valid.Golden_diff in
  match golden with
  | None -> true
  | Some path ->
    let baseline =
      try Json.parse_file path with
      | Sys_error msg -> Guard.invalid msg
      | Json.Parse_error msg ->
        Guard.invalid (Printf.sprintf "bad golden file %s: %s" path msg)
    in
    let diff =
      try Golden_diff.compare ~baseline ~current
      with Json.Parse_error msg ->
        Guard.invalid
          (Printf.sprintf "golden file %s is not a report: %s" path msg)
    in
    Format.printf "%a" Golden_diff.pp diff;
    diff.Golden_diff.severity <> Golden_diff.Breaking

(* ---------- validate ---------- *)

let validate_cmd =
  let module Experiment = Rgleak_valid.Experiment in
  let sweep_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "sweep" ] ~docv:"NAME"
          ~doc:
            "Sweep to run: $(b,quick) (two small points, seconds) or \
             $(b,default) (the full paper-table sweep).")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed.  The whole report is a pure function of (sweep, \
             seed): reruns and different $(b,--jobs) values reproduce it bit \
             for bit.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the rgleak-validate/1 report to $(docv).")
  in
  let golden_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"PATH"
          ~doc:
            "Diff the report against the committed baseline at $(docv).  \
             Drift within the baseline's MC confidence intervals is benign; \
             structural changes or drift beyond them exit non-zero.")
  in
  let run sweep_name seed json golden jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    let sweep = Experiment.sweep_named sweep_name in
    let report = Experiment.run ?jobs ~seed sweep in
    Format.printf "%a" Experiment.pp_report report;
    let doc = Experiment.to_json report in
    Option.iter
      (fun path ->
        write_file path (Json.to_string ~indent:2 doc);
        Printf.printf "report written to %s\n" path)
      json;
    let golden_pass = golden_ok golden doc in
    if not (report.Experiment.pass && golden_pass) then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Statistical validation: paper-table sweeps with Monte-Carlo \
          equivalence tests and golden-artifact regression")
    Term.(
      const run $ sweep_arg $ seed_arg $ json_arg $ golden_arg $ jobs_arg
      $ robust_term $ trace_term)

(* ---------- tail ---------- *)

let tail_cmd =
  let module Tail_test = Rgleak_valid.Tail_test in
  let budget_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "budget" ] ~docv:"UA"
          ~doc:
            "Leakage budget in microamperes; the subcommand estimates \
             P(leakage > budget).")
  in
  let replicas_arg =
    Arg.(
      value & opt int 2000
      & info [ "replicas" ] ~docv:"DIES"
          ~doc:"Importance-sampled replicas (each one full correlated die).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed.  The whole report is a pure function of the \
             arguments: reruns and different $(b,--jobs) values reproduce \
             it bit for bit.")
  in
  let shift_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "shift" ] ~docv:"NM"
          ~doc:
            "Manual uniform channel-length shift of the proposal (nm, \
             usually negative: shorter channels leak more).  Omit to \
             calibrate automatically so the budget sits near the proposal \
             median (~50% hit rate).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the rgleak-tail/1 report to $(docv).")
  in
  let golden_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"PATH"
          ~doc:
            "Diff the report against the committed baseline at $(docv).  \
             Drift of the exceedance probability within the baseline's own \
             CI is benign; structural changes or drift beyond it exit \
             non-zero.")
  in
  let run design budget replicas seed shift char_file json golden jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    (* Argument validation first: bad budgets/shifts are invalid-input
       diagnostics (exit 2), never NaN reports. *)
    let s =
      scenario_of design
        ~fields:
          ([
             ("tier", Json.Str "tail");
             ("budget", jnum budget);
             ("replicas", jint replicas);
             ("seed", jint seed);
           ]
          @ opt_field "shift" jnum shift)
    in
    let chars = chars_of char_file in
    let p =
      p_or_maximizing chars (Histogram.of_weights s.Batch.s_mix) s.Batch.s_p
    in
    let scenario =
      {
        Tail_test.sc_n = s.Batch.s_n;
        sc_family = s.Batch.s_family;
        sc_p = p;
        sc_mix_name = design.mix;
        sc_mix = s.Batch.s_mix;
      }
    in
    let setup = Tail_test.prepare ~chars ~seed:s.Batch.s_seed scenario in
    let budget_na = budget *. 1000.0 in
    let confidence = 0.95 in
    let r =
      Tail_test.run ?jobs ~confidence ?shift_delta:s.Batch.s_shift
        ~budget:budget_na ~replicas:s.Batch.s_replicas setup
    in
    let analytic_p = Tail_test.analytic_exceedance setup ~budget:budget_na in
    Format.printf "%a@." Rgleak_core.Tail.pp r;
    List.iter
      (fun (q : Rgleak_core.Tail.quantile) ->
        Printf.printf "  P%-7g quantile : %10.2f uA\n"
          (100.0 *. q.Rgleak_core.Tail.level)
          (q.Rgleak_core.Tail.value /. 1000.0))
      r.Rgleak_core.Tail.quantiles;
    Printf.printf "analytic lognormal P(> budget): %.4g\n" analytic_p;
    let doc =
      Tail_test.to_json
        {
          Tail_test.doc_n = s.Batch.s_n;
          doc_corr = design.corr;
          doc_mix = design.mix;
          doc_p = p;
          doc_seed = s.Batch.s_seed;
          doc_confidence = confidence;
          doc_analytic_p = Some analytic_p;
        }
        r
    in
    Option.iter
      (fun path ->
        write_file path (Json.to_string ~indent:2 doc);
        Printf.printf "report written to %s\n" path)
      json;
    if not (golden_ok golden doc) then exit 1
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Tail-risk estimation: importance-sampled P(leakage > budget) with \
          high quantiles, confidence intervals and ESS diagnostics")
    Term.(
      const run $ design_term ~default_mix $ budget_arg $ replicas_arg $ seed_arg
      $ shift_arg $ char_arg $ json_arg $ golden_arg $ jobs_arg $ robust_term
      $ trace_term)

(* ---------- optimize ---------- *)

let optimize_cmd =
  let module Memo = Rgleak_cache.Memo in
  let budget_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "budget" ] ~docv:"SLACK"
          ~doc:
            "Timing-slack proxy budget the greedy downgrade may spend: each \
             applied move costs the flavor delay-factor difference \
             (LVT$(i,->)SVT 0.15, SVT$(i,->)HVT 0.25).")
  in
  let start_arg =
    Arg.(
      value
      & opt string "lvt"
      & info [ "start" ] ~docv:"FLAVOR"
          ~doc:
            "Initial flavor of every cell: $(b,lvt) (the classic \
             fast-but-leaky starting point), $(b,svt) or $(b,hvt).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Placement seed.  The whole report is a pure function of the \
             arguments: reruns and different $(b,--jobs) values reproduce it \
             byte for byte.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the rgleak-optimize/1 report to $(docv).")
  in
  let golden_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"PATH"
          ~doc:
            "Diff the report against the committed baseline at $(docv).  The \
             report is deterministic, so any drift beyond bit-stability \
             epsilon (or any structural change) exits non-zero.")
  in
  let cache_term =
    cache_term ~by_default:false
      ~doc:
        "Memoize the packed per-(type-pair, distance-bin) covariance tables \
         in the content-addressed cache at $(docv).  Cached and uncached \
         runs are bit-identical (hex-float payload)."
  in
  let run design budget start seed char_file open_cache json golden jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    let s = scenario_of design ~fields:[ ("seed", jint seed) ] in
    let n = s.Batch.s_n in
    let start_flavor =
      match Vt_correction.flavor_of_string start with
      | Some f -> f
      | None ->
        Guard.invalid
          (Printf.sprintf "unknown flavor %S (expected lvt, svt or hvt)" start)
    in
    let histogram = Histogram.of_weights s.Batch.s_mix in
    let corr_model = corr_model s.Batch.s_family in
    let chars = chars_of char_file in
    let p = p_or_maximizing chars histogram s.Batch.s_p in
    let rng = Rng.create ~seed:s.Batch.s_seed () in
    let placed = Generator.random_placed ~histogram ~n ~rng () in
    let rg = Random_gate.create ~chars ~histogram ~p () in
    let rgcorr = Rg_correlation.create ~chars ~rg ~p () in
    let distance_points = 512 in
    let cov =
      match open_cache None with
      | None -> None
      | Some cache ->
        let used =
          Array.of_list
            (List.sort_uniq compare
               (Array.to_list
                  (Array.map
                     (fun inst -> inst.Netlist.cell_index)
                     placed.Placer.netlist.Netlist.instances)))
        in
        let dstep =
          Estimator_exact.distance_grid ~distance_points placed.Placer.layout
        in
        Some
          (Memo.delta_tables ~cache ~corr:corr_model ~rgcorr ~used
             ~distance_points ~dstep
             ~key_parts:[ "corr=" ^ design.corr ]
             ())
    in
    let st =
      Delta.create ~distance_points ?cov ?jobs
        ~flavors:(Array.make n start_flavor) ~corr:corr_model ~rgcorr placed
    in
    let r = Optimize.run ~budget st in
    let transition_count from_f to_f =
      List.length
        (List.filter
           (fun m ->
             m.Optimize.mv_from = from_f && m.Optimize.mv_to = to_f)
           r.Optimize.moves)
    in
    let reduction =
      let i = r.Optimize.initial.Delta.exact.Delta.mean in
      if i = 0.0 then 0.0
      else (i -. r.Optimize.final.Delta.exact.Delta.mean) /. i
    in
    Printf.printf "greedy multi-Vt downgrade (%d gates, start %s)\n" n
      (Vt_correction.flavor_name start_flavor);
    Printf.printf "  moves applied  : %d (LVT->SVT %d, LVT->HVT %d, SVT->HVT \
                   %d)\n"
      (List.length r.Optimize.moves)
      (transition_count Vt_correction.Lvt Vt_correction.Svt)
      (transition_count Vt_correction.Lvt Vt_correction.Hvt)
      (transition_count Vt_correction.Svt Vt_correction.Hvt);
    Printf.printf "  budget spent   : %.4g of %.4g\n" r.Optimize.spent
      r.Optimize.budget;
    Printf.printf "  mean leakage   : %.6g -> %.6g nA (-%.2f%%)\n"
      r.Optimize.initial.Delta.exact.Delta.mean
      r.Optimize.final.Delta.exact.Delta.mean
      (100.0 *. reduction);
    Printf.printf "  std deviation  : %.6g -> %.6g nA\n"
      r.Optimize.initial.Delta.exact.Delta.std
      r.Optimize.final.Delta.exact.Delta.std;
    let tier_fields prefix (t : Delta.tier) =
      [
        (prefix ^ "_mean", Json.Num t.Delta.mean);
        (prefix ^ "_std", Json.Num t.Delta.std);
      ]
    in
    let doc =
      Json.Obj
        ([
           ("schema", Json.Str "rgleak-optimize/1");
           ("n", Json.Num (float_of_int n));
           ("corr", Json.Str design.corr);
           ("mix", Json.Str design.mix);
           ("p", Json.Num p);
           ("seed", jint s.Batch.s_seed);
           ("start", Json.Str (Vt_correction.flavor_name start_flavor));
           ("method", Json.Str "greedy-density");
           ("budget", Json.Num budget);
           ("spent", Json.Num r.Optimize.spent);
           ("swaps", Json.Num (float_of_int (List.length r.Optimize.moves)));
           ( "moves_lvt_svt",
             Json.Num
               (float_of_int
                  (transition_count Vt_correction.Lvt Vt_correction.Svt)) );
           ( "moves_lvt_hvt",
             Json.Num
               (float_of_int
                  (transition_count Vt_correction.Lvt Vt_correction.Hvt)) );
           ( "moves_svt_hvt",
             Json.Num
               (float_of_int
                  (transition_count Vt_correction.Svt Vt_correction.Hvt)) );
           ("leakage_reduction", Json.Num reduction);
         ]
        @ tier_fields "exact_initial" r.Optimize.initial.Delta.exact
        @ tier_fields "exact_final" r.Optimize.final.Delta.exact
        @ tier_fields "linear_initial" r.Optimize.initial.Delta.linear
        @ tier_fields "linear_final" r.Optimize.final.Delta.linear
        @ tier_fields "integral_initial" r.Optimize.initial.Delta.integral
        @ tier_fields "integral_final" r.Optimize.final.Delta.integral)
    in
    Option.iter
      (fun path ->
        write_file path (Json.to_string ~indent:2 doc);
        Printf.printf "report written to %s\n" path)
      json;
    if not (golden_ok golden doc) then exit 1
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Greedy multi-Vt leakage optimization on the incremental delta \
          estimator: downgrade cells toward slower flavors under a \
          timing-slack proxy budget, each swap re-estimated in O(n) and \
          bit-identical to a cold rebuild")
    Term.(
      const run $ design_term ~default_mix $ budget_arg $ start_arg $ seed_arg
      $ char_arg $ cache_term $ json_arg $ golden_arg $ jobs_arg $ robust_term
      $ trace_term)

(* ---------- batch ---------- *)

let batch_cmd =
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            "JSONL manifest: one scenario object per line (see the rgleak \
             batch section of the README for the fields).  Blank lines and \
             lines starting with # are skipped.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the rgleak-batch/1 JSONL report to $(docv) instead of \
             stdout.")
  in
  let cache_term =
    cache_term ~by_default:true
      ~doc:
        "Root of the content-addressed result cache.  Defaults to \
         \\$RGLEAK_CACHE_DIR, then \\$XDG_CACHE_HOME/rgleak, then \
         ~/.cache/rgleak.  Cached and uncached runs are bit-identical; \
         corrupt entries are deleted and recomputed."
  in
  let run manifest_path out open_cache jobs ro tr =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    let scenarios = Batch.parse_manifest (read_file manifest_path) in
    let cache = open_cache None in
    let outcomes = Batch.run ?cache scenarios in
    let report = Batch.report outcomes in
    (match out with
    | None -> print_string report
    | Some path ->
      write_file path report;
      Printf.eprintf "batch: wrote %d records to %s\n%!"
        (List.length outcomes) path);
    Option.iter
      (fun c ->
        let s = Cache.stats c in
        Printf.eprintf
          "batch: cache %s: %d hits, %d misses, %d corrupt, %d put errors, \
           %d B read, %d B written\n\
           %!"
          (Cache.dir c) s.Cache.hits s.Cache.misses s.Cache.corrupt
          s.Cache.put_errors s.Cache.bytes_read s.Cache.bytes_written)
      cache;
    let code = Batch.exit_code outcomes in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a JSONL manifest of scenarios on one warm pool, memoizing \
          characterization and correlation tables in a content-addressed \
          on-disk cache.  Reports are bit-identical across --jobs values and \
          across cold/warm caches; per-scenario failures become error \
          records and the exit code is the highest failure class.")
    Term.(
      const run $ manifest_arg $ out_arg $ cache_term $ jobs_arg $ robust_term
      $ trace_term)

(* ---------- report ---------- *)

let report_cmd =
  let module Report = Rgleak_valid.Report in
  let ledgers_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"LEDGER"
          ~doc:
            "rgleak-run/1 JSONL ledger files (written by the --ledger flag of \
             any subcommand).  All records from all files are pooled into one \
             window.")
  in
  let metrics_arg =
    Arg.(
      value & opt_all string []
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Also fold a --metrics-json document (rgleak-metrics/1 or /2) \
             into the window.  Repeatable.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the aggregated rgleak-report/1 document to $(docv) ('-' \
             for stdout).")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"BASELEDGER"
          ~doc:
            "Compare the window against a baseline ledger: histogram p50/p99 \
             ratios >= 2x (and cache hit-rate drops >= 0.20) are regressions \
             and exit 1; >= 1.5x ratios warn.")
  in
  let run ledgers metrics json diff ro =
    with_diagnostics ro @@ fun () ->
    if ledgers = [] && metrics = [] then
      Guard.invalid "rgleak report: need at least one LEDGER or --metrics file";
    let parse_ledger path =
      try Report.parse_ledger_file path with
      | Sys_error msg -> Guard.invalid msg
      | Json.Parse_error msg ->
        Guard.invalid (Printf.sprintf "%s: %s" path msg)
    in
    let parse_metrics path =
      try Report.parse_metrics_file path with
      | Sys_error msg -> Guard.invalid msg
      | Json.Parse_error msg ->
        Guard.invalid (Printf.sprintf "%s: %s" path msg)
    in
    let entries =
      List.concat_map parse_ledger ledgers @ List.map parse_metrics metrics
    in
    let agg = Report.aggregate entries in
    let write_json () =
      Option.iter
        (fun path ->
          let doc = Json.to_string ~indent:2 (Report.to_json agg) in
          if path = "-" then print_string doc
          else begin
            write_file path doc;
            Printf.eprintf "report: wrote %s\n%!" path
          end)
        json
    in
    match diff with
    | None ->
      Report.pp stdout agg;
      write_json ()
    | Some base_path ->
      let baseline = Report.aggregate (parse_ledger base_path) in
      let findings = Report.diff ~baseline ~current:agg in
      Report.pp_diff stdout findings;
      write_json ();
      if Report.has_regression findings then exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate run ledgers and metrics files into service-level fleet \
          telemetry: QPS, latency quantiles per tier (recomputed exactly from \
          pooled histogram buckets), cache hit rate, and exit-class counts; \
          --diff attributes latency and hit-rate regressions between two \
          windows.")
    Term.(
      const run $ ledgers_arg $ metrics_arg $ json_arg $ diff_arg
      $ robust_term)

(* ---------- serve / client ---------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the estimation daemon.")

let serve_cmd =
  let module Serve = Rgleak_serve.Serve in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission cap: estimate requests arriving while $(docv) are \
             already queued are rejected with code 5 (server overloaded).  0 \
             rejects every estimate.")
  in
  let shed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shed-threshold" ] ~docv:"N"
          ~doc:
            "Load shedding: a request dequeued while at least $(docv) others \
             still wait runs its exact/mc-tier scenarios on the O(1) integral \
             tier instead, marking the records \"degraded\": true.  Default: \
             never shed.")
  in
  let cache_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-cap" ] ~docv:"BYTES"
          ~doc:
            "LRU size cap on the shared result cache: after each write the \
             coldest entries are evicted until total on-disk bytes fit.  \
             Default: unbounded.")
  in
  let cache_term =
    cache_term ~by_default:true
      ~doc:
        "Root of the shared content-addressed result cache.  Defaults to \
         \\$RGLEAK_CACHE_DIR, then \\$XDG_CACHE_HOME/rgleak, then \
         ~/.cache/rgleak."
  in
  let run socket_path max_queue shed_threshold cache_cap open_cache jobs ro tr
      =
    with_diagnostics ro @@ fun () ->
    apply_jobs jobs;
    with_telemetry tr @@ fun () ->
    if max_queue < 0 then Guard.invalid "--max-queue must be >= 0";
    Option.iter
      (fun t -> if t < 0 then Guard.invalid "--shed-threshold must be >= 0")
      shed_threshold;
    Option.iter
      (fun b -> if b < 0 then Guard.invalid "--cache-cap must be >= 0")
      cache_cap;
    let cache = open_cache cache_cap in
    Serve.run
      ~on_listen:(fun () ->
        Printf.eprintf "serve: listening on %s (max queue %d%s)\n%!"
          socket_path max_queue
          (match shed_threshold with
          | None -> ""
          | Some t -> Printf.sprintf ", shed threshold %d" t))
      { Serve.socket_path; max_queue; shed_threshold; cache };
    Printf.eprintf "serve: drained, exiting\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent estimation daemon on a Unix-domain socket: \
          length-prefixed rgleak-serve/1 requests (single scenarios or inline \
          manifests with the batch fields), fair round-robin admission onto \
          one warm pool and one shared LRU-capped cache, load shedding to the \
          integral tier under queue pressure, and a graceful SIGTERM drain \
          that flushes in-flight responses (and the run ledger, with \
          --ledger).  Responses are byte-identical to rgleak batch records \
          for the same manifest lines.")
    Term.(
      const run $ socket_arg $ max_queue_arg $ shed_arg $ cache_cap_arg
      $ cache_term $ jobs_arg $ robust_term $ trace_term)

let client_cmd =
  let module Protocol = Rgleak_serve.Protocol in
  let module Client = Rgleak_serve.Client in
  let manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Send the JSONL manifest (same fields as rgleak batch; $(b,-) \
             reads stdin) as one estimate request and print the scenario \
             records.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the daemon's rgleak-serve-stats/1 JSON object.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check the daemon is answering.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to drain in-flight requests and exit.")
  in
  let wait_arg =
    Arg.(
      value & opt float 0.0
      & info [ "wait" ] ~docv:"SECS"
          ~doc:
            "Retry until the daemon answers a ping or $(docv) elapse before \
             sending the request — the startup barrier for scripts.")
  in
  let run socket manifest stats ping shutdown wait ro =
    with_diagnostics ro @@ fun () ->
    let op, body =
      match (manifest, stats, ping, shutdown) with
      | Some path, false, false, false ->
        let text =
          if path = "-" then In_channel.input_all In_channel.stdin
          else read_file path
        in
        (Protocol.Estimate, text)
      | None, true, false, false -> (Protocol.Stats, "")
      | None, false, true, false -> (Protocol.Ping, "")
      | None, false, false, true -> (Protocol.Shutdown, "")
      | None, false, false, false ->
        Guard.invalid "pick one of --manifest, --stats, --ping, --shutdown"
      | _ ->
        Guard.invalid
          "--manifest, --stats, --ping and --shutdown are mutually exclusive"
    in
    if wait > 0.0 && not (Client.wait_ready ~socket ~timeout_s:wait) then
      Guard.invalid
        (Printf.sprintf "daemon on %s not ready after %gs" socket wait);
    match Client.request ~socket ~op ~body () with
    | Error msg -> Guard.invalid msg
    | Ok resp ->
      (match resp.Protocol.status with
      | Protocol.Ok -> print_string resp.Protocol.payload
      | Protocol.Error ->
        Printf.eprintf "rgleak: server: %s%!" resp.Protocol.payload);
      if resp.Protocol.code <> 0 then exit resp.Protocol.code
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running rgleak serve daemon: send a manifest for \
          estimation (records print to stdout, byte-identical to rgleak \
          batch), fetch serve stats, ping, or request a graceful shutdown.  \
          Exits with the response code: 0 ok, 2/3/4 the diagnostic classes, \
          5 server overloaded.")
    Term.(
      const run $ socket_arg $ manifest_arg $ stats_arg $ ping_arg
      $ shutdown_arg $ wait_arg $ robust_term)

let () =
  let info =
    Cmd.info "rgleak" ~version:"1.0.0"
      ~doc:
        "Statistical full-chip leakage estimation with within-die correlation \
         (Heloue, Azizi, Najm, DAC 2007)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cells_cmd; characterize_cmd; estimate_cmd; signoff_cmd; yield_cmd;
            sensitivity_cmd; corners_cmd; profile_cmd; map_cmd; sleep_cmd;
            convert_cmd; validate_cmd; tail_cmd; optimize_cmd; batch_cmd;
            report_cmd; serve_cmd; client_cmd ]))
