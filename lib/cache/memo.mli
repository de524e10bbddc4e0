(** Cache-backed memoization of the estimator pipeline's shared work.

    Four artifact kinds are content-addressed in a {!Cache.t}:

    - [chars] — full-library characterization tables
      ({!Rgleak_cells.Characterize.characterize_library}), serialized
      through {!Rgleak_cells.Char_io} (whose [%.17g] text format
      round-trips every float bit-for-bit);
    - [rgcorr] — the RG correlation structure's F and per-cell-pair
      covariance tables ({!Rgleak_core.Rg_correlation.tables});
    - [deltacov] — the delta estimator's packed per-(type-pair,
      distance-bin) covariance tables;
    - [linmemo] — the linear estimator's per-offset F memo
      ({!Rgleak_core.Estimator_linear.memo}).

    All four go through one get-or-compute path: {!Cache.find} with the
    kind's decoder, and on a miss compute then {!Cache.put}.  The
    [rgcorr], [deltacov] and [linmemo] payloads share one line-oriented
    layout (a [rgleak-<kind> 1] header, one line of words per field,
    [end]) with floats printed as hex literals ([%h]), so a cache hit
    replays the {e identical} bits the cold run computed — cached and
    uncached runs are bit-identical by construction.

    A payload that passed the store's integrity check but does not
    decode (e.g. written by code with a mismatched notion of the
    format, which the kind version should prevent) is a corrupt entry:
    {!Cache.find} deletes and reports it, counts a miss, and the value
    is recomputed and stored again — the cache never turns into a crash
    or a wrong result. *)

val library_fingerprint : unit -> string
(** Digest of the compiled-in cell library's structure (names, state
    counts, input counts) — part of every key, so a library change
    invalidates all dependent entries. *)

val chars_key_parts : temp_celsius:float option -> string list
(** Canonical key parts identifying a library characterization:
    library fingerprint, process parameter, characterization settings
    and the (optional) junction temperature. *)

val characterization :
  ?cache:Cache.t ->
  ?jobs:int ->
  temp_celsius:float option ->
  unit ->
  Rgleak_cells.Characterize.cell_char array
(** The default-settings library characterization at the given
    temperature ([None] = the default 300 K library), loaded from the
    cache when possible, else computed (on the shared pool) and
    stored. *)

val correlation :
  ?cache:Cache.t ->
  ?mapping:Rgleak_core.Rg_correlation.mapping ->
  chars:Rgleak_cells.Characterize.cell_char array ->
  rg:Rgleak_core.Random_gate.t ->
  p:float ->
  key_parts:string list ->
  unit ->
  Rgleak_core.Rg_correlation.t
(** The RG correlation structure for [rg]: tables restored from the
    cache when possible, else tabulated ({!Rgleak_core.Rg_correlation.create})
    and stored.  [key_parts] must canonically identify (characterization,
    cell mix, signal probability, RG mode, mapping) — the batch engine
    derives them from the scenario. *)

val delta_tables :
  ?cache:Cache.t ->
  corr:Rgleak_process.Corr_model.t ->
  rgcorr:Rgleak_core.Rg_correlation.t ->
  used:int array ->
  distance_points:int ->
  dstep:float ->
  key_parts:string list ->
  unit ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The packed per-(type-pair, distance-bin) covariance tables the
    delta estimator stages
    ({!Rgleak_core.Rg_correlation.binned_pair_tables}): restored from
    the cache when possible, else computed and stored.  The key closes
    over every input of the computation — the correlation structure's
    {!Rgleak_core.Rg_correlation.table_fingerprint}, the bin geometry
    ([distance_points], [dstep]), the [used] cell set — plus
    [key_parts], which must name the spatial correlation model.
    Payload floats are hex literals, so warm and cold runs hand the
    delta estimator bit-identical tables. *)

val with_linear_memo :
  ?cache:Cache.t ->
  key_parts:string list ->
  rows:int ->
  cols:int ->
  (Rgleak_core.Estimator_linear.memo -> 'a) ->
  'a
(** Runs the continuation with a linear-estimator F memo for the given
    layout shape: pre-filled from the cache on a hit, empty otherwise.
    On a miss the filled memo is stored after the continuation returns
    normally (never after an exception, so a poisoned run cannot
    persist poison).  [key_parts] must identify (correlation structure,
    correlation model, layout shape). *)
