(* Golden-artifact regression for the validate, tail and optimize
   reports.

   A committed baseline pins the numbers a known-good build produced;
   a fresh run is diffed against it by one walk over the union of the
   two documents' keys.  A string, bool, null, key-presence or
   array-length change can only mean an intentional harness change or
   a broken estimator, so it classifies as Breaking.  A number that
   moved within a tiny relative epsilon is Benign (reordered
   floating-point arithmetic); beyond it, Breaking.

   A short per-schema table names the exceptions.  Fields that carry
   Monte Carlo noise are judged against the *baseline's own* confidence
   interval: movement within z * se is indistinguishable from the
   pinned run's sampling noise and classifies as Benign.  Identity
   fields (a report's schema, a validate point's label) end the diff of
   their enclosing object when they change, since comparing the rest
   field by field would only cascade noise.

   Since every report is a pure function of its arguments, the expected
   steady state is Identical, bit for bit. *)

module Json = Rgleak_obs.Json

type severity = Identical | Benign | Breaking

type finding = {
  path : string;  (** JSON-pointer-ish location, e.g. ["points/3/tiers/1/std"] *)
  kind : severity;
  detail : string;
}

type diff = { severity : severity; findings : finding list }

let severity_name = function
  | Identical -> "identical"
  | Benign -> "benign"
  | Breaking -> "breaking"

let worst a b =
  match (a, b) with
  | Breaking, _ | _, Breaking -> Breaking
  | Benign, _ | _, Benign -> Benign
  | Identical, Identical -> Identical

(* ---------- the per-schema exception table ---------- *)

type rule =
  | Identity  (** a change is Breaking and ends the enclosing object's diff *)
  | Within_ci of string
      (** numeric drift within z times the baseline number at this
          path is Benign; its ["*"]s take the field path's wildcards in
          order *)

(* Paths are '/'-separated object keys and array indices; "*" matches
   any one segment. *)
let rules_of_schema schema =
  ("schema", Identity)
  ::
  (match schema with
  | "rgleak-validate/1" ->
    [
      ("points/*/label", Identity);
      ("points/*/mc/mean", Within_ci "points/*/mc/mean_se");
      ("points/*/mc/std", Within_ci "points/*/mc/std_se");
      ("points/*/tiers/*/mean", Within_ci "points/*/mc/mean_se");
      ("points/*/tiers/*/std", Within_ci "points/*/mc/std_se");
    ]
  | "rgleak-tail/1" -> [ ("p_exceed", Within_ci "se") ]
  | _ -> [])
  |> List.map (fun (pattern, rule) -> (String.split_on_char '/' pattern, rule))

(* The segments the pattern's wildcards matched, if it matches. *)
let rec wildcards pattern path =
  match (pattern, path) with
  | [], [] -> Some []
  | "*" :: pattern, seg :: path -> Option.map (List.cons seg) (wildcards pattern path)
  | key :: pattern, seg :: path when String.equal key seg -> wildcards pattern path
  | _ -> None

let rule_at rules path =
  List.find_map
    (fun (pattern, rule) ->
      Option.map (fun ws -> (rule, ws)) (wildcards pattern path))
    rules

let rec fill pattern ws =
  match (pattern, ws) with
  | "*" :: pattern, w :: ws -> w :: fill pattern ws
  | seg :: pattern, ws -> seg :: fill pattern ws
  | [], _ -> []

let rec lookup doc path =
  match (path, doc) with
  | [], _ -> Some doc
  | seg :: path, Json.Obj kvs ->
    Option.bind (List.assoc_opt seg kvs) (fun v -> lookup v path)
  | seg :: path, Json.Arr vs ->
    Option.bind (int_of_string_opt seg) (fun i ->
        Option.bind (List.nth_opt vs i) (fun v -> lookup v path))
  | _ -> None

(* ---------- the walk ---------- *)

(* Fields without a confidence interval (rel errors, z, counts) must be
   bit-stable up to this relative epsilon. *)
let fallback_rel = 1e-9

let within_fallback a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= fallback_rel *. Float.max scale 1.0

let show = function None -> "absent" | Some v -> Json.to_string v

let compare ~baseline ~current =
  let rules = rules_of_schema (Json.str (Json.get "schema" baseline)) in
  (* z_crit recovered from the baseline's confidence level *)
  let z =
    match Json.mem "confidence" baseline with
    | Some (Json.Num c) ->
      Some (Rgleak_num.Special.normal_quantile (0.5 +. (c /. 2.0)))
    | _ -> None
  in
  let tolerance path =
    match (rule_at rules path, z) with
    | Some (Within_ci se_path, ws), Some z -> (
      match lookup baseline (fill (String.split_on_char '/' se_path) ws) with
      | Some (Json.Num se) -> Some (z *. se)
      | _ -> None)
    | _ -> None
  in
  let findings = ref [] in
  let add rpath kind detail =
    findings :=
      { path = String.concat "/" (List.rev rpath); kind; detail } :: !findings
  in
  let number rpath b c =
    let d = Float.abs (c -. b) in
    let tol = tolerance (List.rev rpath) in
    let kind =
      match tol with
      | Some t when d <= t -> Benign
      | _ -> if within_fallback b c then Benign else Breaking
    in
    add rpath kind
      (Printf.sprintf "%.17g -> %.17g (|d| = %.3g%s)" b c d
         (match tol with
         | Some t -> Printf.sprintf ", tolerance %.3g" t
         | None -> ""))
  in
  (* [rpath] is the reversed path of the values being compared. *)
  let rec walk rpath b c =
    match (b, c) with
    | Some (Json.Obj bs), Some (Json.Obj cs) ->
      let keys =
        List.map fst bs
        @ List.filter (fun k -> not (List.mem_assoc k bs)) (List.map fst cs)
      in
      let field k = (k :: rpath, List.assoc_opt k bs, List.assoc_opt k cs) in
      let identity_change =
        List.find_opt
          (fun k ->
            let rpath, b, c = field k in
            b <> c
            && Option.map fst (rule_at rules (List.rev rpath)) = Some Identity)
          keys
      in
      (match identity_change with
      | Some k ->
        let rpath, b, c = field k in
        add rpath Breaking (show b ^ " -> " ^ show c)
      | None ->
        List.iter
          (fun k ->
            let rpath, b, c = field k in
            walk rpath b c)
          keys)
    | Some (Json.Arr bs), Some (Json.Arr cs) ->
      let nb = List.length bs and nc = List.length cs in
      if nb <> nc then add rpath Breaking (Printf.sprintf "length %d -> %d" nb nc)
      else
        List.iteri
          (fun i (b, c) -> walk (string_of_int i :: rpath) (Some b) (Some c))
          (List.combine bs cs)
    | Some (Json.Num b), Some (Json.Num c) -> if b <> c then number rpath b c
    | b, c -> if b <> c then add rpath Breaking (show b ^ " -> " ^ show c)
  in
  walk [] (Some baseline) (Some current);
  let findings = List.rev !findings in
  {
    severity = List.fold_left (fun s f -> worst s f.kind) Identical findings;
    findings;
  }

let pp fmt d =
  (match d.severity with
  | Identical -> Format.fprintf fmt "golden: identical@."
  | Benign ->
    Format.fprintf fmt
      "golden: benign drift (%d finding(s), all within MC sampling noise)@."
      (List.length d.findings)
  | Breaking ->
    Format.fprintf fmt "golden: BREAKING drift (%d finding(s))@."
      (List.length d.findings));
  List.iter
    (fun f ->
      Format.fprintf fmt "  [%s] %s: %s@." (severity_name f.kind) f.path
        f.detail)
    d.findings
