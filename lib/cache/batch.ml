module Guard = Rgleak_num.Guard
module Rng = Rgleak_num.Rng
module Parallel = Rgleak_num.Parallel
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Characterize = Rgleak_cells.Characterize
module Library = Rgleak_cells.Library
module Signal_prob = Rgleak_cells.Signal_prob
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Generator = Rgleak_circuit.Generator
module Placer = Rgleak_circuit.Placer
module Random_gate = Rgleak_core.Random_gate
module Estimate = Rgleak_core.Estimate
module Estimator_exact = Rgleak_core.Estimator_exact
module Mc_reference = Rgleak_core.Mc_reference
module Tail = Rgleak_core.Tail
module Vt_correction = Rgleak_core.Vt_correction
module Json = Rgleak_obs.Json
module Obs = Rgleak_obs.Obs

type tier = Auto | Linear | Integral_2d | Integral_polar | Exact | Mc | Tail

type scenario = {
  s_id : string;
  s_line : int;
  s_n : int;
  s_mix : (string * float) list;
  s_family : Corr_model.wid_family;
  s_p : float option;
  s_tier : tier;
  s_seed : int;
  s_aspect : float;
  s_dims : (float * float) option;
  s_vt : bool;
  s_replicas : int;
  s_temp : float option;
  s_budget : float option;
  s_shift : float option;
}

let tier_name = function
  | Auto -> "auto"
  | Linear -> "linear"
  | Integral_2d -> "int2d"
  | Integral_polar -> "polar"
  | Exact -> "exact"
  | Mc -> "mc"
  | Tail -> "tail"

let () =
  Obs.declare_hist ~owner:"batch" "batch.scenario_s";
  List.iter
    (fun t -> Obs.declare_hist ~owner:"batch" ("batch.tier." ^ t ^ "_s"))
    [ "auto"; "linear"; "int2d"; "polar"; "exact"; "mc"; "tail" ]

(* Diagnostics name the manifest line when there is one; a scenario built
   from command-line flags has none. *)
let fail ?line fmt =
  Printf.ksprintf
    (fun s ->
      Guard.invalid
        (match line with
        | Some l -> Printf.sprintf "manifest line %d: %s" l s
        | None -> s))
    fmt

let tier_of_name ?line = function
  | "auto" -> Auto
  | "linear" -> Linear
  | "int2d" -> Integral_2d
  | "polar" -> Integral_polar
  | "exact" -> Exact
  | "mc" -> Mc
  | "tail" -> Tail
  | s ->
    fail ?line
      "unknown tier %S (want auto, linear, int2d, polar, exact, mc or tail)" s

(* The tiers an early-mode method flag may name. *)
let method_of_name s =
  if not (List.mem s [ "auto"; "linear"; "int2d"; "polar" ]) then
    fail "unknown method %S (want auto, linear, int2d or polar)" s;
  tier_of_name s

let check_p ?line p =
  if not (p >= 0.0 && p <= 1.0) then fail ?line "p must be in [0, 1]";
  p

let method_selector = function
  | Auto -> Estimate.Auto
  | Linear -> Estimate.Linear
  | Integral_2d -> Estimate.Integral_2d
  | Integral_polar -> Estimate.Integral_polar
  | (Exact | Mc | Tail) as t ->
    fail "tier %S is not an early-mode method (want auto, linear, int2d or \
          polar)"
      (tier_name t)

(* Canonical spellings use hex floats so a key never depends on decimal
   rendering quirks. *)
let family_canon = function
  | Corr_model.Linear { dmax } -> Printf.sprintf "linear:%h" dmax
  | Corr_model.Spherical { dmax } -> Printf.sprintf "spherical:%h" dmax
  | Corr_model.Exponential { range } -> Printf.sprintf "exp:%h" range
  | Corr_model.Gaussian { range } -> Printf.sprintf "gauss:%h" range
  | Corr_model.Truncated_exponential { range; dmax } ->
    Printf.sprintf "texp:%h:%h" range dmax

let mix_canon mix =
  List.sort compare mix
  |> List.map (fun (name, w) -> Printf.sprintf "%s:%h" name w)
  |> String.concat ","

let p_canon = function None -> "auto" | Some p -> Printf.sprintf "%h" p

let geom_canon s =
  match s.s_dims with
  | Some (w, h) -> Printf.sprintf "dims:%h:%h" w h
  | None -> Printf.sprintf "aspect:%h" s.s_aspect

let scenario_key_parts s =
  Memo.chars_key_parts ~temp_celsius:s.s_temp
  @ [
      "mix=" ^ mix_canon s.s_mix;
      "corr=" ^ family_canon s.s_family;
      "p=" ^ p_canon s.s_p;
      Printf.sprintf "n=%d" s.s_n;
      "geom=" ^ geom_canon s;
      "tier=" ^ tier_name s.s_tier;
      Printf.sprintf "seed=%d" s.s_seed;
      Printf.sprintf "vt=%b" s.s_vt;
    ]
  @ (match s.s_tier with
    | Mc -> [ Printf.sprintf "replicas=%d" s.s_replicas ]
    | Tail ->
      [
        Printf.sprintf "replicas=%d" s.s_replicas;
        (match s.s_budget with
        | Some b -> Printf.sprintf "budget=%h" b
        | None -> "budget=none");
        (match s.s_shift with
        | Some d -> Printf.sprintf "shift=%h" d
        | None -> "shift=auto");
      ]
    | _ -> [])

let derived_id s = String.sub (Cache.key (scenario_key_parts s)) 0 12

(* --- manifest parsing ----------------------------------------------- *)

let known_fields =
  [
    "id"; "n"; "mix"; "corr"; "p"; "tier"; "seed"; "aspect"; "width";
    "height"; "vt"; "replicas"; "temp"; "budget"; "shift";
  ]

let parse_family ?line s =
  let num what v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f > 0.0 -> f
    | _ -> fail ?line "bad %s %S in correlation spec %S" what v s
  in
  match String.split_on_char ':' s with
  | [ "linear"; d ] -> Corr_model.Linear { dmax = num "distance" d }
  | [ "spherical"; d ] -> Corr_model.Spherical { dmax = num "distance" d }
  | [ "exp"; r ] -> Corr_model.Exponential { range = num "range" r }
  | [ "gauss"; r ] -> Corr_model.Gaussian { range = num "range" r }
  | [ "texp"; r; d ] ->
    Corr_model.Truncated_exponential
      { range = num "range" r; dmax = num "distance" d }
  | _ ->
    fail ?line
      "cannot parse correlation %S (expected e.g. linear:120, exp:60, \
       gauss:80, spherical:120, texp:60:120)"
      s

let parse_mix ?line s =
  if String.trim s = "" then fail ?line "empty cell mix";
  let entries = String.split_on_char ',' (String.trim s) in
  let mix =
    List.map
      (fun entry ->
        match String.split_on_char ':' (String.trim entry) with
        | [ name; w ] -> (
          let name = String.trim name in
          (match Library.index_of name with
          | _ -> ()
          | exception Not_found -> fail ?line "unknown cell %S" name);
          match float_of_string_opt w with
          | Some w when Float.is_finite w && w >= 0.0 -> (name, w)
          | _ -> fail ?line "bad weight in mix entry %S" entry)
        | _ -> fail ?line "bad mix entry %S (want CELL:WEIGHT)" entry)
      entries
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
  if not (total > 0.0 && Float.is_finite total) then
    fail ?line "cell mix weights must sum to a positive finite value";
  mix

let parse_scenario ?line json =
  let fields =
    match json with
    | Json.Obj kvs -> kvs
    | _ -> fail ?line "expected a JSON object"
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k known_fields) then
        fail ?line "unknown field %S (known: %s)" k
          (String.concat ", " known_fields))
    fields;
  let field k = List.assoc_opt k fields in
  let str k v =
    match v with
    | Json.Str s -> s
    | _ -> fail ?line "field %S must be a string" k
  in
  let num k v =
    match v with
    | Json.Num x when Float.is_finite x -> x
    | _ -> fail ?line "field %S must be a finite number" k
  in
  let int k v =
    let x = num k v in
    (* Beyond 2^53 a double no longer holds every integer. *)
    if Float.is_integer x && Float.abs x <= 0x1p53 then int_of_float x
    else fail ?line "field %S must be an integer" k
  in
  let required k =
    match field k with
    | Some v -> v
    | None -> fail ?line "missing required field %S" k
  in
  let n = int "n" (required "n") in
  if n < 1 then fail ?line "n must be at least 1";
  let s_mix = parse_mix ?line (str "mix" (required "mix")) in
  let s_family = parse_family ?line (str "corr" (required "corr")) in
  let s_p =
    Option.map (fun v -> check_p ?line (num "p" v)) (field "p")
  in
  let s_tier =
    match field "tier" with
    | None -> Auto
    | Some v -> tier_of_name ?line (str "tier" v)
  in
  let s_seed = match field "seed" with None -> 0 | Some v -> int "seed" v in
  let s_aspect =
    match field "aspect" with
    | None -> 1.0
    | Some v ->
      let a = num "aspect" v in
      if a <= 0.0 then fail ?line "aspect must be positive";
      a
  in
  let dim k =
    Option.map
      (fun v ->
        let d = num k v in
        if d <= 0.0 then fail ?line "%s must be positive" k;
        d)
      (field k)
  in
  let s_dims =
    match (dim "width", dim "height") with
    | Some w, Some h -> Some (w, h)
    | None, None -> None
    | _ -> fail ?line "width and height must be given together"
  in
  let s_vt =
    match field "vt" with
    | None -> false
    | Some (Json.Bool b) -> b
    | Some _ -> fail ?line "field \"vt\" must be a boolean"
  in
  let s_replicas =
    match field "replicas" with
    | None -> 400
    | Some v ->
      let r = int "replicas" v in
      if r < 2 then fail ?line "replicas must be at least 2";
      r
  in
  let s_temp =
    Option.map
      (fun v ->
        let t = num "temp" v in
        if not (t > -273.15) then
          fail ?line "temp must be above -273.15 C (absolute zero)";
        t)
      (field "temp")
  in
  (* Tail-only fields: [budget] (µA, required for the tail tier) and
     [shift] (nm, optional manual override of the calibrated shift). *)
  let s_budget =
    Option.map
      (fun v ->
        let b = num "budget" v in
        if not (b > 0.0) then fail ?line "budget must be positive";
        b)
      (field "budget")
  in
  let s_shift = Option.map (num "shift") (field "shift") in
  (match s_tier with
  | Tail ->
    if s_budget = None then
      fail ?line "tail tier requires a budget field (uA)";
    (match s_shift with
    | Some d when Float.abs d > 30.0 ->
      fail ?line
        "shift must be within +/-30 nm (the characterization grid spans \
         about +/-25 nm)"
    | _ -> ())
  | _ ->
    if s_budget <> None then
      fail ?line "field \"budget\" only applies to the tail tier";
    if s_shift <> None then
      fail ?line "field \"shift\" only applies to the tail tier");
  let s =
    {
      s_id = "";
      s_line = Option.value line ~default:0;
      s_n = n;
      s_mix;
      s_family;
      s_p;
      s_tier;
      s_seed;
      s_aspect;
      s_dims;
      s_vt;
      s_replicas;
      s_temp;
      s_budget;
      s_shift;
    }
  in
  let s_id =
    match field "id" with
    | Some v ->
      let id = str "id" v in
      if id = "" then fail ?line "empty id" else id
    | None -> derived_id s
  in
  { s with s_id }

let parse_manifest text =
  let scenarios = ref [] in
  String.split_on_char '\n' text
  |> List.iteri (fun i raw ->
         let line = i + 1 in
         let trimmed = String.trim raw in
         if trimmed <> "" && trimmed.[0] <> '#' then
           let json =
             try Json.parse trimmed
             with Json.Parse_error msg ->
               fail ~line "malformed JSON (%s)" msg
           in
           scenarios := parse_scenario ~line json :: !scenarios);
  match List.rev !scenarios with
  | [] -> Guard.invalid "empty manifest: no scenarios to run"
  | scenarios -> scenarios

(* --- execution ------------------------------------------------------- *)

type ctx_entry = {
  e_chars : Characterize.cell_char array;
  e_histogram : Histogram.t;
  e_p : float;
  e_rgcorr : Rgleak_core.Rg_correlation.t;
  e_parts : string list;  (** cache key parts of the structure *)
}

type state = {
  cache : Cache.t option;
  chars_tbl : (string, Characterize.cell_char array) Hashtbl.t;
  ctx_tbl : (string, ctx_entry) Hashtbl.t;
}

let chars_for state ~temp_celsius =
  let parts = Memo.chars_key_parts ~temp_celsius in
  let k = String.concat "\x00" parts in
  match Hashtbl.find_opt state.chars_tbl k with
  | Some chars -> chars
  | None ->
    let chars = Memo.characterization ?cache:state.cache ~temp_celsius () in
    Hashtbl.replace state.chars_tbl k chars;
    chars

let ctx_for state scen =
  let chars_parts = Memo.chars_key_parts ~temp_celsius:scen.s_temp in
  let parts =
    chars_parts
    @ [
        "mix=" ^ mix_canon scen.s_mix;
        "p=" ^ p_canon scen.s_p;
        "mode=analytic";
        "mapping=exact";
      ]
  in
  let k = String.concat "\x00" parts in
  match Hashtbl.find_opt state.ctx_tbl k with
  | Some e -> e
  | None ->
    let e_chars = chars_for state ~temp_celsius:scen.s_temp in
    let e_histogram = Histogram.of_weights scen.s_mix in
    let e_p =
      match scen.s_p with
      | Some p -> p
      | None ->
        Signal_prob.maximizing_p e_chars
          ~weights:(Histogram.to_array e_histogram)
    in
    let rg = Random_gate.create ~chars:e_chars ~histogram:e_histogram ~p:e_p () in
    let e_rgcorr =
      Memo.correlation ?cache:state.cache ~chars:e_chars ~rg ~p:e_p
        ~key_parts:parts ()
    in
    let e = { e_chars; e_histogram; e_p; e_rgcorr; e_parts = parts } in
    Hashtbl.replace state.ctx_tbl k e;
    e

let layout_of scen =
  let width, height =
    match scen.s_dims with
    | Some (w, h) -> (w, h)
    | None ->
      (* Near-square site grid at the default 4 µm pitch, like the
         validation experiments: area = 16·n µm². *)
      let area = 16.0 *. float_of_int scen.s_n in
      (sqrt (area *. scen.s_aspect), sqrt (area /. scen.s_aspect))
  in
  Layout.of_dims ~n:scen.s_n ~width ~height

(* Placement/MC seeds are pure functions of the scenario's own seed
   field (same derivation pattern as the validation experiments), never
   of its manifest position — that is what makes records invariant
   under manifest reordering. *)
let mc_seed scen = scen.s_seed + 104729

let placed_of scen ~histogram layout =
  let rng = Rng.stream ~seed:scen.s_seed 0 in
  let netlist =
    Generator.random_netlist ~histogram ~n:scen.s_n ~rng ()
  in
  Placer.place ~strategy:Placer.Random ~rng netlist layout

let ok_record scen ~p ~layout ?replicas ~mean ~std ~method_used () =
  let base =
    [
      ("id", Json.Str scen.s_id);
      ("status", Json.Str "ok");
      ("tier", Json.Str (tier_name scen.s_tier));
      ("n", Json.Num (float_of_int scen.s_n));
      ("seed", Json.Num (float_of_int scen.s_seed));
      ("p", Json.Num p);
      ("width", Json.Num (Layout.width layout));
      ("height", Json.Num (Layout.height layout));
      ("mean", Json.Num mean);
      ("std", Json.Num std);
      ("method", Json.Str method_used);
    ]
  in
  let extra =
    match replicas with
    | Some r -> [ ("replicas", Json.Num (float_of_int r)) ]
    | None -> []
  in
  Json.Obj (base @ extra)

let run_scenario state scen =
  let ctx_e = ctx_for state scen in
  let corr =
    Corr_model.create scen.s_family Process_param.default_channel_length
  in
  let layout = layout_of scen in
  match scen.s_tier with
  | (Auto | Linear | Integral_2d | Integral_polar) as t ->
    let spec =
      {
        Estimate.histogram = ctx_e.e_histogram;
        n = scen.s_n;
        width = Layout.width layout;
        height = Layout.height layout;
      }
    in
    let method_ = method_selector t in
    let ctx =
      Estimate.context_with ~corr ~rgcorr:ctx_e.e_rgcorr
        ~histogram:ctx_e.e_histogram ~p:ctx_e.e_p ()
    in
    let run_est lin_memo =
      Estimate.run ?lin_memo ~method_ ~with_vt:scen.s_vt ctx spec
    in
    (* The F memo only matters when the linear tier will execute. *)
    let r =
      if Estimate.resolve_method ~method_ ctx spec = Estimate.Linear then
        let key_parts =
          ctx_e.e_parts
          @ [
              "corr=" ^ family_canon scen.s_family;
              Printf.sprintf "site=%h:%h" layout.Layout.site_w
                layout.Layout.site_h;
            ]
        in
        Memo.with_linear_memo ?cache:state.cache ~key_parts
          ~rows:(Layout.rows layout) ~cols:layout.Layout.cols (fun memo ->
            run_est (Some memo))
      else run_est None
    in
    ok_record scen ~p:ctx_e.e_p ~layout ~mean:r.Estimate.mean
      ~std:r.Estimate.std ~method_used:r.Estimate.method_used ()
  | Exact ->
    let placed = placed_of scen ~histogram:ctx_e.e_histogram layout in
    let r = Estimator_exact.estimate ~corr ~rgcorr:ctx_e.e_rgcorr placed in
    let mean =
      if scen.s_vt then
        r.Estimator_exact.mean *. Vt_correction.mean_factor ()
      else r.Estimator_exact.mean
    in
    ok_record scen ~p:ctx_e.e_p ~layout ~mean ~std:r.Estimator_exact.std
      ~method_used:"exact pairwise (O(n^2))" ()
  | Mc ->
    let placed = placed_of scen ~histogram:ctx_e.e_histogram layout in
    let mc =
      Mc_reference.prepare ~chars:ctx_e.e_chars ~corr ~p:ctx_e.e_p placed
    in
    let mean, std =
      Mc_reference.moments_stream mc ~seed:(mc_seed scen)
        ~count:scen.s_replicas
    in
    ok_record scen ~p:ctx_e.e_p ~layout ~replicas:scen.s_replicas ~mean ~std
      ~method_used:"monte-carlo reference" ()
  | Tail ->
    let placed = placed_of scen ~histogram:ctx_e.e_histogram layout in
    let mc =
      Mc_reference.prepare ~chars:ctx_e.e_chars ~corr ~p:ctx_e.e_p placed
    in
    let budget_na =
      match scen.s_budget with
      | Some b -> b *. 1000.0 (* manifest budgets are µA; totals are nA *)
      | None -> assert false (* enforced at parse time *)
    in
    let delta =
      match scen.s_shift with
      | Some d -> d
      | None -> Mc_reference.calibrate_shift mc ~budget:budget_na
    in
    let shift = Mc_reference.uniform_shift mc ~delta in
    let r =
      Tail.estimate ~mc ~budget:budget_na ~shift ~seed:(mc_seed scen)
        ~replicas:scen.s_replicas ()
    in
    let quantile name level =
      match
        List.find_opt (fun (q : Tail.quantile) -> q.Tail.level = level)
          r.Tail.quantiles
      with
      | Some q -> [ (name, Json.Num q.Tail.value) ]
      | None -> []
    in
    Json.Obj
      ([
         ("id", Json.Str scen.s_id);
         ("status", Json.Str "ok");
         ("tier", Json.Str (tier_name scen.s_tier));
         ("n", Json.Num (float_of_int scen.s_n));
         ("seed", Json.Num (float_of_int scen.s_seed));
         ("p", Json.Num ctx_e.e_p);
         ("width", Json.Num (Layout.width layout));
         ("height", Json.Num (Layout.height layout));
         ("replicas", Json.Num (float_of_int scen.s_replicas));
         ("budget_na", Json.Num budget_na);
         ("delta_nm", Json.Num r.Tail.delta);
         ("p_exceed", Json.Num r.Tail.p_exceed);
         ("se", Json.Num r.Tail.se);
         ("ess", Json.Num r.Tail.ess);
         ("hits", Json.Num (float_of_int r.Tail.hits));
       ]
      @ quantile "p99_na" 0.99
      @ quantile "p999_na" 0.999
      @ quantile "p9999_na" 0.9999
      @ [ ("method", Json.Str "importance-sampled tail") ])

type outcome = { o_id : string; o_json : Json.t; o_code : int }

type engine = state

let engine ?cache () =
  (* Touch the shared pool once so every scenario reuses warm domains. *)
  ignore (Parallel.default ());
  { cache; chars_tbl = Hashtbl.create 4; ctx_tbl = Hashtbl.create 8 }

let run_one state scen =
  (* Per-scenario latency distributions, overall and per tier —
     the service-level histograms `rgleak report` aggregates. *)
  let timed () =
    Obs.hist_time "batch.scenario_s" @@ fun () ->
    Obs.hist_time ("batch.tier." ^ tier_name scen.s_tier ^ "_s")
    @@ fun () -> run_scenario state scen
  in
  match Guard.protect timed with
  | Ok json -> { o_id = scen.s_id; o_json = json; o_code = 0 }
  | Error d ->
    {
      o_id = scen.s_id;
      o_json =
        Json.Obj
          [
            ("id", Json.Str scen.s_id);
            ("status", Json.Str "error");
            ("class", Json.Str (Guard.class_name d));
            ("error", Json.Str (Guard.to_string d));
          ];
      o_code = Guard.exit_code d;
    }

let run ?cache scenarios = List.map (run_one (engine ?cache ())) scenarios

let report outcomes =
  let header =
    Json.Obj
      [
        ("schema", Json.Str "rgleak-batch/1");
        ("scenarios", Json.Num (float_of_int (List.length outcomes)));
      ]
  in
  String.concat "\n"
    (Json.to_string header
    :: List.map (fun o -> Json.to_string o.o_json) outcomes)
  ^ "\n"

let exit_code outcomes =
  List.fold_left (fun acc o -> max acc o.o_code) 0 outcomes
