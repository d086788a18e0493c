(** The checksummed file envelope shared by campaign snapshots
    ([pbse-snapshot/1]) and session-store files ([pbse-store/1]).

    A sealed document is one compact JSON object
    [{"schema": S, "checksum": "fnv1a64:<16 hex>", "payload": P}] whose
    checksum is FNV-1a-64 over the compact rendering of [P]. The JSON
    printer is deterministic and key-order preserving, so parse then
    re-render reproduces the checksummed bytes exactly. The checksum
    catches accidental corruption only: it is not a MAC, so a loader must
    still range-check what a re-sealed payload says. *)

val fnv1a64 : string -> string
(** ["fnv1a64:"] followed by the 16-hex-digit FNV-1a-64 hash. *)

val seal : schema:string -> Json.t -> string
(** The sealed document for [payload] under [schema] (no trailing
    newline). *)

type error =
  | Corrupt of string (* unparsable, truncated, or failed its checksum *)
  | Version_mismatch of string (* a schema other than the expected one *)

val unseal : schema:string -> string -> (Json.t, error) result
(** Parse a sealed document, check its schema and checksum, and return
    the payload. Never raises. *)

val write_atomic : path:string -> string -> unit
(** Write [data] plus a newline to [path].tmp, rotate any existing
    [path] to [path].bak, then rename the tmp file into place. *)

val read_file : path:string -> (string, string) result
(** The whole file, or the I/O error message. *)
