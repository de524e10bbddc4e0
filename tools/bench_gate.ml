(* CI perf-regression gate: compare a fresh BENCH_estimators.json
   against the committed baseline.

     bench_gate --baseline BENCH_committed.json --current BENCH_estimators.json

   Exit 0 when no hard failure (schema mismatch, missing entry, a
   slowdown beyond the fail threshold — 3x by default, tightened per
   estimator in Bench_gate — or an allocation metric over budget);
   warnings between --warn-ratio and the fail threshold print but do
   not gate — shared-runner wall clocks are noisy.  Exit 2 on
   malformed inputs.

   --ratchet additionally adopts the current document as the new
   baseline (overwriting the --baseline file) when the run is a clean,
   meaningful improvement (see Bench_gate.should_adopt); the gate's
   exit code is unchanged by adoption. *)

module Json = Rgleak_obs.Json
module Bench_gate = Rgleak_valid.Bench_gate

let copy_file ~src ~dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let () =
  let baseline = ref "" in
  let current = ref "" in
  let warn_ratio = ref 1.5 in
  let fail_ratio = ref 3.0 in
  let ratchet = ref false in
  let overhead = ref "" in
  let args =
    [
      ("--baseline", Arg.Set_string baseline, "FILE committed bench document");
      ("--current", Arg.Set_string current, "FILE freshly measured document");
      ( "--overhead",
        Arg.Set_string overhead,
        "FILE validate a BENCH_overhead.json (rgleak-overhead/3) instead: \
         schema, histogram fields, and the disabled-cost budget" );
      ( "--warn-ratio",
        Arg.Set_float warn_ratio,
        "R report slowdowns beyond R (default 1.5)" );
      ( "--fail-ratio",
        Arg.Set_float fail_ratio,
        "R hard-fail slowdowns beyond R (default 3.0; exact tier is \
         tightened to 2.0)" );
      ( "--ratchet",
        Arg.Set ratchet,
        " adopt current as the new baseline when meaningfully faster" );
    ]
  in
  let usage =
    "bench_gate --baseline FILE --current FILE [options]\n\
     bench_gate --overhead FILE"
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !overhead <> "" then begin
    match Bench_gate.check_overhead (Json.parse_file !overhead) with
    | Ok () ->
      Printf.printf "overhead gate: %s PASS\n" !overhead;
      exit 0
    | Error msg ->
      Printf.eprintf "overhead gate: FAIL: %s\n" msg;
      exit 1
    | exception (Sys_error msg | Json.Parse_error msg) ->
      Printf.eprintf "bench_gate: %s\n" msg;
      exit 2
  end;
  if !baseline = "" || !current = "" then begin
    prerr_endline usage;
    exit 2
  end;
  match
    let baseline = Json.parse_file !baseline in
    let current = Json.parse_file !current in
    Bench_gate.compare ~warn_ratio:!warn_ratio ~fail_ratio:!fail_ratio
      ~baseline ~current ()
  with
  | exception (Sys_error msg | Json.Parse_error msg | Invalid_argument msg)
    ->
    Printf.eprintf "bench_gate: %s\n" msg;
    exit 2
  | verdict ->
    Format.printf "%a" Bench_gate.pp verdict;
    if !ratchet then
      if Bench_gate.should_adopt verdict then begin
        copy_file ~src:!current ~dst:!baseline;
        Printf.printf
          "ratchet: adopted current run as the new baseline (best ratio \
           %.2fx)\n"
          verdict.Bench_gate.best_ratio
      end
      else
        Printf.printf
          "ratchet: kept existing baseline (best ratio %.2fx; adoption \
           needs a clean >= 10%% improvement)\n"
          verdict.Bench_gate.best_ratio;
    exit (if verdict.Bench_gate.pass then 0 else 1)
