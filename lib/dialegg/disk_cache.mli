(** The shared on-disk memo layer under the static-tier and serving
    caches.

    Three subsystems persist content-addressed verdicts/results next to
    each other in one directory: the ruleset verifier ({!Vet},
    [HASH.vet]), the encoding auditor ({!Audit}, [HASH.audit]) and the
    optimization daemon's result cache ([Serve.Cache], [HASH.result]).
    This module owns what they have in common so the guarantees are
    uniform:

    - one default directory resolution ([$DIALEGG_VET_CACHE], empty
      string = disabled, otherwise a [dialegg-vet-cache] directory under
      the system temp dir);
    - crash-safe entry commits: same-directory temp file, fsync of the
      data, atomic rename, then fsync of the parent directory, so a
      committed entry survives a power cut and a torn write is never
      observable under the final name;
    - a size cap with least-recently-used eviction: the directory is
      pruned back under [$DIALEGG_CACHE_MAX_MB] (default 256 MB),
      deleting oldest-mtime cache entries first.  Only files with a
      known cache extension are ever counted or deleted — foreign files
      in the directory are left alone.

    A process does not scan the directory after every commit.  It keeps
    an estimate per directory: the bytes its last scan left there plus
    the bytes it has committed since, and scans (and evicts) only when a
    commit takes that estimate over the cap.  A process's first commit
    to a directory always scans.  With one writer the estimate never
    falls below the real total, so eviction removes exactly the entries
    a scan after every commit would.  Each of N concurrent writers
    counts only its own commits, so the directory can exceed the cap by
    what the other writers committed since their last scans: at most
    about (N - 1) × the cap, plus one entry per writer.  Each writer's
    next scan brings it back under.

    Reads stay in the owning modules (each validates its own magic /
    format version); corruption tolerance is their job, durability and
    bounding are this module's. *)

(** The entry extensions this layer recognizes (and is allowed to
    evict): [".vet"], [".audit"], [".result"]. *)
val cache_exts : string list

(** [$DIALEGG_VET_CACHE] resolution: [Some dir] to cache on disk there,
    [None] when disabled ([DIALEGG_VET_CACHE=""]). *)
val default_dir : unit -> string option

(** The eviction threshold in bytes: [$DIALEGG_CACHE_MAX_MB] megabytes
    (default 256; values [<= 0] or unparseable fall back to the
    default). *)
val max_bytes : unit -> int

(** [write_entry ~dir ~file emit] durably commits one cache entry named
    [file] (a basename) inside [dir], creating the directory if needed:
    [emit oc] writes the payload, then the temp file is fsync'd, renamed
    over [dir/file], the directory fsync'd, and the cache pruned back
    under the size cap ([max] bytes, default {!max_bytes}) when the
    directory's estimate exceeds it.  Best-effort: any failure
    (read-only media, a full disk) is swallowed — a cache that cannot
    persist degrades to a recompute, never to an error. *)
val write_entry : ?max:int -> dir:string -> file:string -> (out_channel -> unit) -> unit

(** Re-stamp an entry a reader just used, so LRU pruning sees it as
    fresh.  Best-effort. *)
val touch : string -> unit

(** [prune ~dir ()] deletes the oldest cache entries (by mtime, known
    extensions only) until the directory's cache footprint is back under
    [max_bytes] (or [~max]).  Never raises. *)
val prune : ?max:int -> dir:string -> unit -> unit
