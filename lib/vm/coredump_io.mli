(** Textual (de)serialization of coredumps, hardened for hostile inputs.

    Production systems ship coredumps as files; this module gives MiniVM
    dumps a stable, human-readable on-disk format so the CLI can separate
    "run and capture" from "analyze".  [of_string (to_string d)]
    round-trips exactly (property-tested).

    v2 of the format wraps the records in a validating envelope (version
    header + [end <lines> <checksum>] footer, FNV-1a over the payload), so
    truncation and bit corruption are detected and classified into a
    structured {!dump_error} rather than surfacing as a stray exception.
    v1 dumps (no footer) remain readable. *)

exception Bad_format of string

(** Why a dump could not be loaded (or had to be salvaged). *)
type dump_error =
  | Empty_dump
  | Bad_header of string  (** first line is not a coredump header *)
  | Truncated of string  (** records or envelope footer missing *)
  | Corrupted of { expected : int; actual : int }  (** checksum mismatch *)
  | Malformed of string  (** a record failed to parse *)
  | Unreadable of string  (** the file could not be read at all *)

val pp_dump_error : Format.formatter -> dump_error -> unit
val dump_error_to_string : dump_error -> string

(** What a successful load carries: the dump, plus the damage that was
    worked around when the dump had to be salvaged. *)
type loaded = { dump : Coredump.t; salvaged : dump_error option }

(** Serialize a coredump to its textual format (v2, checksummed), one
    record per line: the salvage path reads the intact prefix line by
    line. *)
val to_string : Coredump.t -> string

(** Parse a coredump, classifying damage instead of raising.  With
    [~salvage:true], a truncated or bit-corrupted dump is recovered
    best-effort from its intact prefix (a crash record must survive); the
    damage that was overridden is reported in [salvaged]. *)
val of_string_result : ?salvage:bool -> string -> (loaded, dump_error) result

(** Parse a coredump from its textual format.
    @raise Bad_format on malformed input. *)
val of_string : string -> Coredump.t

(** {2 Shared on-disk-format helpers}

    The other sealed formats ({!Res_core.Sealing}: spool entries, wire
    frames, protocol frames, cache entries) reuse the coredump format's
    FNV-1a envelope and the journal names of the atomic writer
    ({!Res_core.Ioshim.write_file_atomic}). *)

(** 32-bit FNV-1a checksum of a string. *)
val fnv1a32 : string -> int

(** Newlines in a string (the envelope's line count). *)
val count_lines : string -> int

(** Append the validating [end <lines> <checksum>] footer to a payload
    (which must end in a newline). *)
val seal : string -> string

(** Validate a sealed envelope whose first line must be [header];
    returns the record payload (footer stripped).  The footer must be
    exactly what {!seal} writes: [end], the line count and the checksum
    in canonical decimal, one space apart, and a final newline. *)
val validate_sealed : header:string -> string -> (string, dump_error) result

(** Best-effort fsync of a directory (publishes renames/creates within it
    across power loss); silently a no-op where directory fsync is
    unsupported. *)
val fsync_dir : string -> unit

(** The journal name the next atomic write to [path] would use — for
    fault-injection that plants a torn journal where a killed writer
    would have left one. *)
val fresh_tmp_path : string -> string

(** All journal siblings of [path] on disk, sorted: [path.<pid>.<n>.tmp]
    files plus the legacy [path.tmp].  What {!Res_core.Ioshim}'s journal
    recovery scans. *)
val journal_siblings : string -> string list

(** Read a whole file, classifying failures as {!Unreadable}.  A file
    that is not a regular one (a pipe, [/dev/stdin]) is read until end of
    file. *)
val read_file : string -> (string, dump_error) result

(** Load a coredump from a file, classifying damage instead of raising.
    Loads are memoized per domain on [(salvage, file text)], compared as
    whole strings, never by path: a text loaded before with the same
    [salvage] returns the same [loaded] record (its dump physically
    equal) without decoding again.  Only [Ok] results are kept, and the
    memo holds at most {!memo_bound} bytes of text: it starts over when
    the next text would not fit, and never keeps a larger one. *)
val load_result : ?salvage:bool -> string -> (loaded, dump_error) result

(** The most text, in bytes, that {!load_result}'s memo holds. *)
val memo_bound : int

(** This domain's file loads so far: [files] calls of {!load_result},
    [decoded] of them that ran the decoder, and the [memo_bytes] of text
    its memo holds now. *)
type load_counts = { files : int; decoded : int; memo_bytes : int }

val load_counts : unit -> load_counts

(** Load a coredump from a file.
    @raise Bad_format on any failure (including unreadable files). *)
val load : string -> Coredump.t
