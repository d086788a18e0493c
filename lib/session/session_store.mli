(** The serve layer's cache of rendered campaign {e residues}: final
    response bodies as plain strings, keyed by campaign fingerprint, with
    strict LRU eviction beyond 64 entries. It is the only cache that
    outlives a campaign; it holds no engine state, so a repeated request
    is answered with the bytes a fresh campaign rendered, never with
    sessions or seedStates left over from another campaign.

    {!save}/{!load} carry the residues across a server restart as a
    [pbse-store/1] document in the {!Pbse_telemetry.Sealed_file}
    envelope, so a deploy does not flush the warm cache.

    Telemetry: hit/miss/evict/reload totals are exposed directly and
    mirrored into the [session.store_hits] / [session.store_misses] /
    [session.store_evictions] / [session.store_reloads] counters of the
    registry given at {!create}. All operations are mutex-guarded; one
    store may be shared by concurrent server clients. *)

type t

val max_entries : int
(** 64: residues kept before the least-recently-used one is evicted. *)

val create : ?registry:Pbse_telemetry.Telemetry.Registry.t -> unit -> t
(** [registry] (default the process-global one) receives the
    [session.store_*] counters. *)

val find_residue : t -> fingerprint:string -> string option
(** Recall a rendered residue (counts a hit or a miss, touches LRU
    order). *)

val put_residue : t -> fingerprint:string -> string -> unit
(** Record the rendered response body of a finished campaign; may evict
    the least-recently-used residue beyond {!max_entries}. *)

val save : t -> path:string -> unit
(** Write every rendered residue to [path] as a [pbse-store/1] document
    (atomic tmp + rename, previous file rotated to [path].bak), in LRU
    order so a reload keeps the most recently useful entries. *)

val load : t -> path:string -> (int, string) result
(** Reload residues saved by {!save} into the store, returning how many
    were loaded (each also counts into [reloads] and
    [session.store_reloads]). A missing, corrupt or checksum-mismatched
    file is an [Error] and leaves the store unchanged. Never raises. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val reloads : t -> int
(** Residues reloaded from store files over this store's lifetime. *)

val residue_size : t -> int
(** Rendered residues currently cached. *)
