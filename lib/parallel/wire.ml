(** Wire formats for the worker pool.

    Batch-triage verdicts cross the worker boundary in the same hardened
    textual envelope as coredumps: versioned header plus
    FNV-1a footer via {!Res_core.Sealing.seal}. *)

module Io = Res_vm.Coredump_io

(* --- length-prefixed frames over file descriptors ------------------- *)

(* Frames are a 10-digit decimal length header followed by the payload;
   big enough for any unit, trivially resynchronizable, and a partial
   header/payload (the writer died mid-write) reads as EOF.  Shared by
   the worker pool's pipes and the triage daemon's sockets. *)

let rec write_all fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + n) (len - n)

(* The header's digits and the payload in one buffer, with one copy of
   the payload. *)
let write_frame fd s =
  let n = String.length s in
  let b = Bytes.create (10 + n) in
  let rec header i v =
    if i >= 0 then (
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (v mod 10)));
      header (i - 1) (v / 10))
  in
  header 9 n;
  Bytes.blit_string s 0 b 10 n;
  write_all fd b 0 (10 + n)

(** Why a frame could not be read.  [Frame_eof] is the clean case (the
    peer closed between frames); everything else is damage worth
    reporting: a writer that died mid-frame, a corrupt or hostile length
    prefix, or a peer that went silent past the reader's deadline.
    Oversized prefixes are rejected {e before} allocating, so a corrupted
    header surfaces as a typed error instead of [Out_of_memory]. *)
type frame_error =
  | Frame_eof  (** EOF at a frame boundary *)
  | Frame_torn of string  (** the writer died mid-header or mid-payload *)
  | Frame_oversized of int  (** length prefix beyond {!max_frame_bytes} *)
  | Frame_timeout  (** the deadline passed before the frame was whole *)

let frame_error_to_string = function
  | Frame_eof -> "connection closed"
  | Frame_torn what -> Fmt.str "torn frame (%s)" what
  | Frame_oversized n -> Fmt.str "oversized frame (%d bytes > limit)" n
  | Frame_timeout -> "deadline exceeded mid-frame"

(** Largest payload a frame may announce (64 MiB) — far above any sealed
    unit or triage blob, far below an allocation that would take the
    process down. *)
let max_frame_bytes = 64 * 1024 * 1024

(** Wait until [fd] is readable (or, with [~write:true], writable);
    [false] once the absolute [deadline] passes first.  A failing
    [select] reports ready, so the call that follows classifies the
    error. *)
let rec ready_by ?(write = false) fd deadline =
  let remaining = deadline -. Unix.gettimeofday () in
  remaining > 0.
  &&
  let rd, wr = if write then ([], [ fd ]) else ([ fd ], []) in
  match Unix.select rd wr [] remaining with
  | [], [], _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready_by ~write fd deadline
  | exception Unix.Unix_error _ -> true

(** Read exactly [n] bytes.  With an absolute [deadline], every chunk
    waits in [select] first, so a peer that stalls mid-frame costs at
    most the deadline; without one (the pool's pipes, whose writer is a
    child the pool supervises) it is a plain blocking loop. *)
let read_exact ?deadline fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then `Ok b
    else
      match deadline with
      | Some d when not (ready_by fd d) -> `Deadline
      | _ -> (
          match Unix.read fd b off (n - off) with
          | 0 -> `Eof off
          | k -> go (off + k)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          (* a reset is the peer hanging up, like EOF *)
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof off
          | exception Unix.Unix_error (e, _, _) -> `Err (Unix.error_message e))
  in
  go 0

(** Parse a frame's 10-byte length prefix.  A corrupt, negative or
    oversized announcement is an error {e before} anything is allocated
    for the payload; every frame reader goes through here. *)
let frame_length hdr =
  let hdr = Bytes.to_string hdr in
  match int_of_string_opt hdr with
  | None -> Error (Frame_torn (Fmt.str "bad length prefix %S" hdr))
  | Some len when len < 0 ->
      Error (Frame_torn (Fmt.str "negative length prefix %d" len))
  | Some len when len > max_frame_bytes -> Error (Frame_oversized len)
  | Some len -> Ok len

(** Read one frame, classifying every failure mode; with [deadline]
    (absolute), a frame still incomplete when it passes is
    [Frame_timeout]. *)
let read_frame_result ?deadline fd =
  match read_exact ?deadline fd 10 with
  | `Deadline -> Error Frame_timeout
  | `Eof 0 -> Error Frame_eof
  | `Eof n -> Error (Frame_torn (Fmt.str "%d/10 header bytes" n))
  | `Err m -> Error (Frame_torn m)
  | `Ok hdr -> (
      match frame_length hdr with
      | Error e -> Error e
      | Ok len -> (
          match read_exact ?deadline fd len with
          | `Deadline -> Error Frame_timeout
          | `Eof n -> Error (Frame_torn (Fmt.str "%d/%d payload bytes" n len))
          | `Err m -> Error (Frame_torn m)
          | `Ok b -> Ok (Bytes.to_string b)))

(** Read one frame; [None] on EOF or a torn header/payload (writer died). *)
let read_frame fd =
  match read_frame_result fd with Ok s -> Some s | Error _ -> None

(* --- pool replies ------------------------------------------------------ *)

(** A batch worker's answer: the corpus index it triaged and its verdict,
    in the result cache's body codec.  The request direction needs no
    format of its own: a batch unit's payload is its index among the
    run's units, which a forked worker carries (inherited at the fork,
    or sent with the run's worker, {!Supervisor.kept}), and a domain
    reads them in place. *)
let verdict_header = "resbatchres v2"

let encode_verdict ~index v =
  Res_core.Sealing.seal
    (Fmt.str "%s\nrow %d\n%s\n" verdict_header index
       (Res_cache.Cache.encode_row v))

let decode_verdict s =
  match Res_core.Sealing.validate ~header:verdict_header s with
  | Error e -> Error (Io.dump_error_to_string e)
  | Ok payload -> (
      match
        Scanf.sscanf_opt payload "%_s@\nrow %d\n%n" (fun i off -> (i, off))
      with
      | None -> Error "expected a row index"
      | Some (index, off) -> (
          match
            Res_cache.Cache.decode_row
              (String.sub payload off (String.length payload - off))
          with
          | Some v -> Ok (index, v)
          | None -> Error "undecodable verdict"))
