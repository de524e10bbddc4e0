(** Content-addressed on-disk result cache.

    The paper's thesis is that leakage statistics are a function of a
    small set of high-level characteristics — which makes most of the
    expensive work (library characterization, correlation-function
    tables, linear-estimator F memos) {e shared} across the many
    scenario evaluations a sign-off or design-space sweep performs.
    This store memoizes those artifacts on disk, keyed by a stable
    content hash of the canonical inputs.

    {b Addressing.}  {!key} hashes a list of canonical string parts
    (length-prefixed, so part boundaries are unambiguous) with MD5 —
    stable across process restarts, platforms and OCaml versions.
    Entries are further namespaced by a [kind] and an integer
    [version]: bumping the version of a kind invalidates every entry
    of that kind without touching others.

    {b Failure semantics.}  The cache is an accelerator, never an
    authority: corrupt entries (truncation, bit rot, a stale writer —
    detected by a payload digest recorded in the entry header, or by a
    {!find} decoder that rejects the payload) are deleted, surfaced
    through the [on_corrupt] callback as a typed
    {!Rgleak_num.Guard.diagnostic}, and treated as misses so callers
    recompute.  Write failures (read-only directory, disk full) are
    swallowed and counted; a run with a broken cache directory
    degrades to uncached speed but never crashes or changes results.
    The ["cache"] {!Rgleak_num.Guard.Fault} site deterministically
    forces reads down the corrupt path for testing.

    {b Eviction.}  By default the store only grows.  Opening with
    [~cap_bytes] turns on a least-recently-used size cap: the handle
    indexes every entry on open (recency seeded from file mtimes) and,
    after each write, evicts the coldest entries until total on-disk
    bytes fit the cap.  Hits refresh recency (in memory, and
    best-effort on the file mtime so recency survives restarts).
    Eviction only ever runs inside {!put} and never selects the entry
    just written, so a payload read by {!find} is always a complete
    read — an entry is never deleted mid-read through its own handle.
    A concurrent reader in another process at worst sees a miss and
    recomputes; correctness never depends on an entry staying.

    {b Counters.}  Hits, misses, corruption events, evictions and byte
    traffic are kept per handle ({!stats}) and mirrored into
    {!Rgleak_obs.Obs} counters ([cache.hits], [cache.misses],
    [cache.corrupt], [cache.bytes_read], [cache.bytes_written],
    [cache.put_errors], [cache.evictions], [cache.bytes_evicted]) so
    they land in [--metrics-json] exports.

    Handles must be driven from one domain at a time (the batch engine
    runs scenarios sequentially; pool workers never touch the cache). *)

type t

type stats = {
  hits : int;
  misses : int;
  corrupt : int;  (** entries rejected by the integrity check *)
  put_errors : int;  (** failed writes (swallowed) *)
  bytes_read : int;  (** payload bytes of successful hits *)
  bytes_written : int;  (** payload bytes of successful puts *)
  evictions : int;  (** entries removed by the LRU size cap *)
  bytes_evicted : int;  (** on-disk bytes of evicted entries *)
}

val default_dir : unit -> string
(** [$RGLEAK_CACHE_DIR], else [$XDG_CACHE_HOME/rgleak], else
    [$HOME/.cache/rgleak], else [_rgleak_cache] in the working
    directory. *)

val open_ :
  ?on_corrupt:(Rgleak_num.Guard.diagnostic -> unit) ->
  ?cap_bytes:int ->
  dir:string ->
  unit ->
  t
(** A handle rooted at [dir] (created lazily on first write).
    [on_corrupt] (default: ignore) observes every integrity failure.
    [cap_bytes] (default: unbounded) caps total on-disk entry bytes
    (header + payload) with LRU eviction; the single entry most
    recently written is exempt, so a cap smaller than one entry still
    admits that entry. *)

val dir : t -> string

val total_bytes : t -> int
(** Indexed on-disk entry bytes.  Always [0] when the handle was
    opened without [cap_bytes] (no index is maintained). *)

val key : string list -> string
(** Stable content hash (32 hex chars) of the canonical parts.  Parts
    are length-prefixed before hashing, so [["ab"; "c"]] and
    [["a"; "bc"]] address different entries. *)

val find :
  t -> kind:string -> version:int -> key:string -> (string -> 'a) -> 'a option
(** The stored payload passed through the decoder, or [None] on a miss
    or a corrupt entry (which is deleted and reported).  A decoder that
    raises marks the entry corrupt exactly like a failed integrity
    check: it is deleted, counted in [corrupt] and [misses] (never in
    [hits]), and reported through [on_corrupt]. *)

val get : t -> kind:string -> version:int -> key:string -> string option
(** {!find} with the identity decoder: the raw payload. *)

val put : t -> kind:string -> version:int -> key:string -> string -> unit
(** Stores a payload (atomic write-then-rename; concurrent writers of
    the same key are idempotent because content-addressing makes their
    payloads identical).  Failures are swallowed and counted. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zeroes the per-handle counters (the mirrored {!Rgleak_obs.Obs}
    counters are managed by that library's [reset]). *)
