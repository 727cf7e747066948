(** Wire protocol of the triage daemon.

    Requests and replies travel over a Unix domain socket as
    length-prefixed frames ({!Res_parallel.Wire.write_frame} /
    [read_frame] — the same framing as the worker pool's pipes).  Each
    frame's payload is a sealed text in the envelope every RES on-disk
    artifact uses (versioned header + FNV-1a [end <lines> <checksum>]
    footer via {!Res_vm.Coredump_io.seal}), so a truncated or
    bit-corrupted frame is detected and classified, never parsed into
    nonsense.

    Program and coredump texts are embedded as {e raw length-prefixed
    blobs} ([prog <bytes>\n<raw>...]) rather than escaped string tokens:
    the blobs are full files whose bytes must round-trip exactly, and a
    byte count is robust where an escaping convention would be another
    parser to harden.  The sealed payloads double as the spool's on-disk
    format — an accepted request is journaled by writing its request
    frame verbatim, and a finished request by writing its [Result] reply
    verbatim, so recovery needs no third format. *)

module Io = Res_vm.Coredump_io

let seal = Res_core.Sealing.seal

let write_frame = Res_parallel.Wire.write_frame
let read_frame = Res_parallel.Wire.read_frame

let req_header = "ressrvreq v1"
let rep_header = "ressrvrep v1"

(** What a client asks of the daemon. *)
type request =
  | Submit of {
      sb_prog : string;  (** MiniIR program text *)
      sb_dump : string;  (** coredump text *)
      sb_deadline_ms : int option;  (** per-request wall budget *)
      sb_fuel : int option;  (** per-request fuel budget *)
    }
  | Triage of {
      tg_name : string;  (** corpus name of the dump: the unit identity *)
      tg_prog : string;  (** MiniIR program text *)
      tg_dump : string;  (** coredump text *)
      tg_deadline_ms : int option;
      tg_fuel : int option;
    }
      (** a cluster coordinator's triage unit: analyze and answer with one
          [Row] on this same connection (no spool id round-trip — the
          coordinator owns retry and identity) *)
  | Fetch of string  (** result (or progress) of an accepted request id *)
  | Status
  | Drain
  | Ping

(** What the daemon answers.  Every accepted request eventually produces
    exactly one [Result]; everything else is an immediate, typed answer —
    the protocol has no silent outcome. *)
type reply =
  | Accepted of { ac_id : string; ac_queued : int }
  | Rejected_overload of { ro_queued : int; ro_capacity : int }
      (** the bounded admission queue is full: load was shed *)
  | Rejected_breaker of { rb_signature : string; rb_retry_ms : int }
      (** the workload signature's circuit breaker is open *)
  | Rejected_draining  (** the daemon is draining; resubmit elsewhere/later *)
  | Result of {
      rs_id : string;
      rs_outcome : string;  (** {!Res_core.Res.outcome_name} *)
      rs_timeout : bool;  (** the request burned its whole budget *)
      rs_elapsed_ms : int;
      rs_body : string;  (** bit-stable report bodies *)
    }
  | Row of {
      rw_name : string;  (** unit identity, echoed from the [Triage] request *)
      rw_elapsed_ms : int;
      rw_verdict : Res_cache.Cache.row;
    }  (** terminal answer to a [Triage] unit *)
  | Pending of { pd_id : string; pd_state : string }  (** queued | running *)
  | Unknown of string
  | Status_reply of {
      st_accepted : int;  (** accepted since this process started *)
      st_completed : int;
      st_shed : int;
      st_breaker_rejected : int;
      st_recovered : int;  (** requests re-admitted from the spool at boot *)
      st_queued : int;
      st_running : int;
      st_worker_restarts : int;
      st_breakers_open : int;
      st_cache_hits : int;
          (** submissions answered from the result cache, never queued *)
      st_draining : bool;
      st_breakers : (string * string * int) list;
          (** per-workload breaker health: (signature, state name, trips) *)
    }
  | Drained of { dr_remaining : int }
  | Pong of int  (** daemon pid *)
  | Err of string

(* --- encoding -------------------------------------------------------- *)

let int_opt = function None -> "none" | Some n -> string_of_int n

let blob b tag body = Buffer.add_string b (Fmt.str "%s %d\n%s\n" tag (String.length body) body)

let encode_request = function
  | Submit { sb_prog; sb_dump; sb_deadline_ms; sb_fuel } ->
      let b = Buffer.create (String.length sb_prog + String.length sb_dump + 64) in
      Buffer.add_string b
        (Fmt.str "%s\nsubmit %s %s\n" req_header (int_opt sb_deadline_ms)
           (int_opt sb_fuel));
      blob b "prog" sb_prog;
      blob b "dump" sb_dump;
      seal (Buffer.contents b)
  | Triage { tg_name; tg_prog; tg_dump; tg_deadline_ms; tg_fuel } ->
      let b =
        Buffer.create (String.length tg_prog + String.length tg_dump + 96)
      in
      Buffer.add_string b
        (Fmt.str "%s\ntriage %s %s\n" req_header (int_opt tg_deadline_ms)
           (int_opt tg_fuel));
      blob b "name" tg_name;
      blob b "prog" tg_prog;
      blob b "dump" tg_dump;
      seal (Buffer.contents b)
  | Fetch id -> seal (Fmt.str "%s\nfetch %s\n" req_header id)
  | Status -> seal (Fmt.str "%s\nstatus\n" req_header)
  | Drain -> seal (Fmt.str "%s\ndrain\n" req_header)
  | Ping -> seal (Fmt.str "%s\nping\n" req_header)

let encode_reply = function
  | Accepted { ac_id; ac_queued } ->
      seal (Fmt.str "%s\naccepted %s %d\n" rep_header ac_id ac_queued)
  | Rejected_overload { ro_queued; ro_capacity } ->
      seal
        (Fmt.str "%s\nrejected-overload %d %d\n" rep_header ro_queued
           ro_capacity)
  | Rejected_breaker { rb_signature; rb_retry_ms } ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Fmt.str "%s\nrejected-breaker %d\n" rep_header rb_retry_ms);
      blob b "sig" rb_signature;
      seal (Buffer.contents b)
  | Rejected_draining -> seal (Fmt.str "%s\nrejected-draining\n" rep_header)
  | Result { rs_id; rs_outcome; rs_timeout; rs_elapsed_ms; rs_body } ->
      let b = Buffer.create (String.length rs_body + 96) in
      Buffer.add_string b
        (Fmt.str "%s\nresult %s %s %d %d\n" rep_header rs_id rs_outcome
           (if rs_timeout then 1 else 0)
           rs_elapsed_ms);
      blob b "body" rs_body;
      seal (Buffer.contents b)
  | Row { rw_name; rw_elapsed_ms; rw_verdict = v } ->
      let b = Buffer.create (String.length v.c_bucket + 160) in
      Buffer.add_string b
        (Fmt.str "%s\nrow %s %d %d %d %d %d\n" rep_header v.c_outcome
           (if v.c_timeout then 1 else 0)
           rw_elapsed_ms v.c_nodes v.c_pruned v.c_queries);
      blob b "name" rw_name;
      blob b "bucket" v.c_bucket;
      blob b "cause" v.c_cause;
      seal (Buffer.contents b)
  | Pending { pd_id; pd_state } ->
      seal (Fmt.str "%s\npending %s %s\n" rep_header pd_id pd_state)
  | Unknown id -> seal (Fmt.str "%s\nunknown %s\n" rep_header id)
  | Status_reply s ->
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Fmt.str "%s\nstatus %d %d %d %d %d %d %d %d %d %d %d\n" rep_header
           s.st_accepted s.st_completed s.st_shed s.st_breaker_rejected
           s.st_recovered s.st_queued s.st_running s.st_worker_restarts
           s.st_breakers_open s.st_cache_hits
           (if s.st_draining then 1 else 0));
      Buffer.add_string b (Fmt.str "breakers %d\n" (List.length s.st_breakers));
      List.iter
        (fun (signature, state, trips) ->
          Buffer.add_string b (Fmt.str "b %s %d\n" state trips);
          blob b "sig" signature)
        s.st_breakers;
      seal (Buffer.contents b)
  | Drained { dr_remaining } ->
      seal (Fmt.str "%s\ndrained %d\n" rep_header dr_remaining)
  | Pong pid -> seal (Fmt.str "%s\npong %d\n" rep_header pid)
  | Err msg ->
      let b = Buffer.create (String.length msg + 64) in
      Buffer.add_string b (Fmt.str "%s\nerror\n" rep_header);
      blob b "msg" msg;
      seal (Buffer.contents b)

(* --- decoding -------------------------------------------------------- *)

(* A tiny cursor over the validated payload: whitespace-separated words
   plus raw byte-counted blobs.  Decoding failures raise internally and
   surface as [Error] from the decode entry points. *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

let word c =
  let n = String.length c.src in
  while c.pos < n && is_space c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos >= n then raise (Bad "unexpected end of payload");
  let start = c.pos in
  while c.pos < n && not (is_space c.src.[c.pos]) do
    c.pos <- c.pos + 1
  done;
  String.sub c.src start (c.pos - start)

let expect c w =
  let got = word c in
  if not (String.equal got w) then raise (Bad (Fmt.str "expected %S, got %S" w got))

let int_word c =
  let w = word c in
  match int_of_string_opt w with
  | Some n -> n
  | None -> raise (Bad (Fmt.str "expected an integer, got %S" w))

let int_opt_word c =
  let w = word c in
  if String.equal w "none" then None
  else
    match int_of_string_opt w with
    | Some n -> Some n
    | None -> raise (Bad (Fmt.str "expected an integer or none, got %S" w))

let bool_word c =
  match int_word c with
  | 0 -> false
  | 1 -> true
  | n -> raise (Bad (Fmt.str "expected 0/1, got %d" n))

(** [tag <bytes>\n<raw bytes>\n] — the byte count, not an escaping scheme,
    delimits the blob, so any file content round-trips. *)
let blob_word c tag =
  expect c tag;
  let len = int_word c in
  if len < 0 then raise (Bad (Fmt.str "negative %s blob length" tag));
  (* skip the single newline after the length *)
  if c.pos >= String.length c.src || c.src.[c.pos] <> '\n' then
    raise (Bad (Fmt.str "missing newline after %s length" tag));
  c.pos <- c.pos + 1;
  (* compare by subtraction on the trusted side: [c.pos + len] could
     wrap to negative for a near-max_int forged length and sail past
     the bound *)
  if len > String.length c.src - c.pos then
    raise (Bad (Fmt.str "truncated %s blob" tag));
  let body = String.sub c.src c.pos len in
  c.pos <- c.pos + len;
  body

let decode ~header s parse =
  match Res_core.Sealing.validate ~header s with
  | Error e -> Error (Io.dump_error_to_string e)
  | Ok payload -> (
      let c = { src = payload; pos = String.length header } in
      try Ok (parse c) with
      | Bad m -> Error m
      | exn -> Error (Printexc.to_string exn))

let decode_request s =
  decode ~header:req_header s (fun c ->
      match word c with
      | "submit" ->
          let sb_deadline_ms = int_opt_word c in
          let sb_fuel = int_opt_word c in
          let sb_prog = blob_word c "prog" in
          let sb_dump = blob_word c "dump" in
          Submit { sb_prog; sb_dump; sb_deadline_ms; sb_fuel }
      | "triage" ->
          let tg_deadline_ms = int_opt_word c in
          let tg_fuel = int_opt_word c in
          let tg_name = blob_word c "name" in
          let tg_prog = blob_word c "prog" in
          let tg_dump = blob_word c "dump" in
          Triage { tg_name; tg_prog; tg_dump; tg_deadline_ms; tg_fuel }
      | "fetch" -> Fetch (word c)
      | "status" -> Status
      | "drain" -> Drain
      | "ping" -> Ping
      | verb -> raise (Bad (Fmt.str "unknown request verb %S" verb)))

let decode_reply s =
  decode ~header:rep_header s (fun c ->
      match word c with
      | "accepted" ->
          let ac_id = word c in
          let ac_queued = int_word c in
          Accepted { ac_id; ac_queued }
      | "rejected-overload" ->
          let ro_queued = int_word c in
          let ro_capacity = int_word c in
          Rejected_overload { ro_queued; ro_capacity }
      | "rejected-breaker" ->
          let rb_retry_ms = int_word c in
          let rb_signature = blob_word c "sig" in
          Rejected_breaker { rb_signature; rb_retry_ms }
      | "rejected-draining" -> Rejected_draining
      | "result" ->
          let rs_id = word c in
          let rs_outcome = word c in
          let rs_timeout = bool_word c in
          let rs_elapsed_ms = int_word c in
          let rs_body = blob_word c "body" in
          Result { rs_id; rs_outcome; rs_timeout; rs_elapsed_ms; rs_body }
      | "row" ->
          let c_outcome = word c in
          let c_timeout = bool_word c in
          let rw_elapsed_ms = int_word c in
          let c_nodes = int_word c in
          let c_pruned = int_word c in
          let c_queries = int_word c in
          let rw_name = blob_word c "name" in
          let c_bucket = blob_word c "bucket" in
          let c_cause = blob_word c "cause" in
          Row
            {
              rw_name;
              rw_elapsed_ms;
              rw_verdict =
                {
                  c_outcome;
                  c_timeout;
                  c_bucket;
                  c_cause;
                  c_nodes;
                  c_pruned;
                  c_queries;
                };
            }
      | "pending" ->
          let pd_id = word c in
          let pd_state = word c in
          Pending { pd_id; pd_state }
      | "unknown" -> Unknown (word c)
      | "status" ->
          let st_accepted = int_word c in
          let st_completed = int_word c in
          let st_shed = int_word c in
          let st_breaker_rejected = int_word c in
          let st_recovered = int_word c in
          let st_queued = int_word c in
          let st_running = int_word c in
          let st_worker_restarts = int_word c in
          let st_breakers_open = int_word c in
          let st_cache_hits = int_word c in
          let st_draining = bool_word c in
          expect c "breakers";
          let n = int_word c in
          (match Res_core.Sealing.count_error ~what:"breaker" n with
          | None -> ()
          | Some reason -> raise (Bad reason));
          (* explicit loop: the cursor is stateful, so evaluation order
             must be left-to-right *)
          let rec breakers_of acc k =
            if k = 0 then List.rev acc
            else begin
              expect c "b";
              let state = word c in
              let trips = int_word c in
              let signature = blob_word c "sig" in
              breakers_of ((signature, state, trips) :: acc) (k - 1)
            end
          in
          let st_breakers = breakers_of [] n in
          Status_reply
            {
              st_accepted;
              st_completed;
              st_shed;
              st_breaker_rejected;
              st_recovered;
              st_queued;
              st_running;
              st_worker_restarts;
              st_breakers_open;
              st_cache_hits;
              st_draining;
              st_breakers;
            }
      | "drained" -> Drained { dr_remaining = int_word c }
      | "pong" -> Pong (int_word c)
      | "error" -> Err (blob_word c "msg")
      | verb -> raise (Bad (Fmt.str "unknown reply verb %S" verb)))

let pp_reply ppf = function
  | Accepted { ac_id; ac_queued } ->
      Fmt.pf ppf "accepted %s (%d queued)" ac_id ac_queued
  | Rejected_overload { ro_queued; ro_capacity } ->
      Fmt.pf ppf "rejected: overload (%d queued, capacity %d)" ro_queued
        ro_capacity
  | Rejected_breaker { rb_retry_ms; _ } ->
      Fmt.pf ppf "rejected: circuit breaker open (retry in ~%dms)" rb_retry_ms
  | Rejected_draining -> Fmt.string ppf "rejected: daemon draining"
  | Result { rs_id; rs_outcome; rs_timeout; rs_elapsed_ms; _ } ->
      Fmt.pf ppf "result %s: %s%s (%dms)" rs_id rs_outcome
        (if rs_timeout then " [budget exhausted]" else "")
        rs_elapsed_ms
  | Row { rw_name; rw_elapsed_ms; rw_verdict = v } ->
      Fmt.pf ppf "row %s: %s%s → %s (%dms)" rw_name v.c_outcome
        (if v.c_timeout then " [budget exhausted]" else "")
        v.c_bucket rw_elapsed_ms
  | Pending { pd_id; pd_state } -> Fmt.pf ppf "pending %s (%s)" pd_id pd_state
  | Unknown id -> Fmt.pf ppf "unknown request id %s" id
  | Status_reply s ->
      Fmt.pf ppf
        "accepted=%d completed=%d shed=%d breaker_rejected=%d recovered=%d \
         queued=%d running=%d worker_restarts=%d breakers_open=%d \
         cache_hits=%d draining=%b"
        s.st_accepted s.st_completed s.st_shed s.st_breaker_rejected
        s.st_recovered s.st_queued s.st_running s.st_worker_restarts
        s.st_breakers_open s.st_cache_hits s.st_draining;
      List.iter
        (fun (signature, state, trips) ->
          Fmt.pf ppf "@,breaker %-9s trips=%d sig=%s" state trips signature)
        s.st_breakers
  | Drained { dr_remaining } ->
      Fmt.pf ppf "draining (%d request(s) still in flight)" dr_remaining
  | Pong pid -> Fmt.pf ppf "pong (pid %d)" pid
  | Err msg -> Fmt.pf ppf "error: %s" msg
