module Json = Rgleak_obs.Json

let expected_schema = "rgleak-bench-estimators/4"

type finding = {
  estimator : string;
  n : int;
  base_seconds : float;
  cur_seconds : float;
  ratio : float;
  level : [ `Warn | `Fail ];
}

type alloc_finding = {
  estimator : string;
  n : int;
  metric : string;
  value : float;  (** nan when the metric is missing from the entry *)
  budget : float;
}

type verdict = {
  schema_ok : bool;
  missing : (string * int) list;
  compared : int;
  findings : finding list;
  alloc_findings : alloc_finding list;
  best_ratio : float;
  pass : bool;
}

(* The exact tier is the headline kernel: its wall time is dominated by
   a deterministic pair loop with no I/O, so a 2x regression is a code
   change, not runner noise.  The delta-swap tier is the same pair
   arithmetic over a single row, timed across a whole swap plan, so it
   gets the same tightened threshold.  The other tiers keep the looser
   default because they mix RNG-heavy and malloc-heavy phases that
   shared runners disturb more. *)
let tightened_fail_ratio = [ ("exact", 2.0); ("delta-swap", 2.0) ]

let fail_ratio_for ~default estimator =
  match List.assoc_opt estimator tightened_fail_ratio with
  | Some r -> Float.min r default
  | None -> default

(* Allocation budgets, in minor-heap words per unit of work, checked on
   the current run only (they are absolute, not relative).  The flat
   kernel leaves the exact pair loop allocation-free — measured ~0.001
   words/pair including staging — so 0.05 words/pair flags any boxed
   value sneaking back into the loop while tolerating harness noise.
   The streaming MC replica loop allocates ~16 words per gate per
   sample (boxed transients at draw sites); 64·n words/sample is four
   times that profile. *)
let alloc_budgets ~estimator ~n =
  match estimator with
  | "exact" -> [ ("minor_words_per_pair", 0.05) ]
  | "mc" -> [ ("minor_words_per_sample", 64.0 *. float_of_int n) ]
  | _ -> []

type entry = { seconds : float; alloc : (string * float) list }

let entries_of doc =
  Json.arr (Json.get "entries" doc)
  |> List.map (fun e ->
         let estimator = Json.str (Json.get "estimator" e) in
         let n = int_of_float (Json.num (Json.get "n" e)) in
         let seconds = Json.num (Json.get "seconds" e) in
         let alloc =
           match Json.mem "alloc" e with
           | Some (Json.Obj kvs) ->
             List.map (fun (k, v) -> (k, Json.num v)) kvs
           | Some _ -> raise (Json.Parse_error "\"alloc\" is not an object")
           | None -> []
         in
         ((estimator, n), { seconds; alloc }))

let compare ?(warn_ratio = 1.5) ?(fail_ratio = 3.0) ~baseline ~current () =
  if warn_ratio <= 0.0 || fail_ratio < warn_ratio then
    invalid_arg "Bench_gate.compare: need 0 < warn_ratio <= fail_ratio";
  let schema doc = Json.str (Json.get "schema" doc) in
  let schema_ok =
    schema baseline = expected_schema && schema current = expected_schema
  in
  let base = entries_of baseline in
  let cur = entries_of current in
  let missing =
    List.filter_map
      (fun (k, _) -> if List.mem_assoc k cur then None else Some k)
      base
  in
  let findings = ref [] in
  let compared = ref 0 in
  let best_ratio = ref infinity in
  List.iter
    (fun ((estimator, n), { seconds = base_seconds; _ }) ->
      match List.assoc_opt (estimator, n) cur with
      | None -> ()
      | Some { seconds = cur_seconds; _ } ->
        incr compared;
        (* A baseline entry of ~0 s would make any ratio explode; floor
           both sides at 1 ms so only meaningful timings gate. *)
        let floor_s = 1e-3 in
        let ratio =
          Float.max cur_seconds floor_s /. Float.max base_seconds floor_s
        in
        best_ratio := Float.min !best_ratio ratio;
        if ratio > warn_ratio then
          findings :=
            {
              estimator;
              n;
              base_seconds;
              cur_seconds;
              ratio;
              level =
                (if ratio > fail_ratio_for ~default:fail_ratio estimator then
                   `Fail
                 else `Warn);
            }
            :: !findings)
    base;
  let findings =
    List.sort (fun a b -> Stdlib.compare b.ratio a.ratio) !findings
  in
  (* Allocation regressions: every budgeted metric must be present in
     the current entry and within budget.  A missing metric is a
     harness break (someone dropped the measurement), not a pass. *)
  let alloc_findings =
    List.concat_map
      (fun ((estimator, n), { alloc; _ }) ->
        List.filter_map
          (fun (metric, budget) ->
            match List.assoc_opt metric alloc with
            | Some value when value <= budget -> None
            | Some value -> Some { estimator; n; metric; value; budget }
            | None -> Some { estimator; n; metric; value = Float.nan; budget })
          (alloc_budgets ~estimator ~n))
      cur
  in
  let hard =
    (not schema_ok)
    || missing <> []
    || alloc_findings <> []
    || List.exists (fun f -> f.level = `Fail) findings
  in
  {
    schema_ok;
    missing;
    compared = !compared;
    findings;
    alloc_findings;
    best_ratio = (if !compared = 0 then 1.0 else !best_ratio);
    pass = not hard;
  }

(* Ratchet policy: adopt the current run as the new committed baseline
   only when it is a clean, meaningful improvement — nothing slowed
   past the warn threshold (adopting would enshrine the slowdown) and
   at least one entry got >= 10% faster (anything less is wall-clock
   noise that would make the baseline drift downward run over run). *)
let should_adopt v =
  v.pass && v.findings = [] && v.missing = [] && v.compared > 0
  && v.best_ratio <= 0.9

let pp fmt v =
  if not v.schema_ok then
    Format.fprintf fmt "FAIL: schema mismatch (want %s in both documents)@."
      expected_schema;
  List.iter
    (fun (e, n) ->
      Format.fprintf fmt "FAIL: baseline entry (%s, n=%d) missing from current run@." e n)
    v.missing;
  List.iter
    (fun f ->
      Format.fprintf fmt "%s: %s n=%d is %.2fx slower (%.4f s -> %.4f s)@."
        (match f.level with `Fail -> "FAIL" | `Warn -> "warn")
        f.estimator f.n f.ratio f.base_seconds f.cur_seconds)
    v.findings;
  List.iter
    (fun (a : alloc_finding) ->
      if Float.is_nan a.value then
        Format.fprintf fmt "FAIL: %s n=%d lacks required alloc metric %s@."
          a.estimator a.n a.metric
      else
        Format.fprintf fmt
          "FAIL: %s n=%d %s = %g exceeds budget %g words@." a.estimator a.n
          a.metric a.value a.budget)
    v.alloc_findings;
  Format.fprintf fmt "bench gate: %d entries compared, %d finding(s): %s@."
    v.compared
    (List.length v.findings + List.length v.alloc_findings)
    (if v.pass then "PASS" else "FAIL")

(* ---------- overhead documents ---------- *)

let overhead_schema = "rgleak-overhead/3"

(* Validates a BENCH_overhead.json produced by `bench --run overhead`:
   current schema, the histogram-probe fields present (guarding
   against the hist cost being silently dropped from the harness), and
   the recorded total under its budget. *)
let check_overhead doc =
  let get name =
    match Json.mem name doc with
    | Some v -> v
    | None -> raise (Json.Parse_error (Printf.sprintf "missing field %S" name))
  in
  match Json.str (get "schema") with
  | s when s <> overhead_schema ->
    Error (Printf.sprintf "overhead schema %S, want %S" s overhead_schema)
  | _ ->
    let overhead = Json.num (get "overhead_fraction") in
    let budget = Json.num (get "budget_fraction") in
    let hist_ns = Json.num (get "hist_site_ns") in
    let hist_frac = Json.num (get "hist_overhead_fraction") in
    if not (Json.bool (get "pass")) then
      Error "overhead document records pass=false"
    else if not (overhead < budget) then
      Error
        (Printf.sprintf "overhead fraction %.6f not under budget %.3f" overhead
           budget)
    else if not (hist_ns >= 0.0 && hist_frac >= 0.0) then
      Error "malformed histogram overhead fields"
    else Ok ()
