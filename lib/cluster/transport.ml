(** TCP transport for the triage cluster.

    The coordinator talks to node daemons with the same length-prefixed
    sealed frames the worker pool and the single-node daemon use
    ({!Res_parallel.Wire}); this module adds what a network hop demands
    and a same-host pipe never did:

    - {b connect deadlines}: a node that is partitioned away must not
      wedge the coordinator in [connect] — the connect is non-blocking
      and guarded by [select];
    - {b read deadlines}: frames are read in chunks with a [select]
      before every chunk, so a peer that stalls mid-frame (the injected
      partition of the cluster-soak campaign) surfaces as a typed
      [Timeout], never a hang;
    - {b typed failures}: refused, timed out, closed, and damaged are
      distinct — the coordinator's reschedule policy reacts differently
      to each ({!Registry} backoff vs. immediate failover).

    Oversized or corrupt length prefixes are rejected before any
    allocation, by the same {!Res_parallel.Wire.frame_length} parse the
    worker pool and the daemon use. *)

module Wire = Res_parallel.Wire

(** A node address: host (name or dotted quad) and TCP port. *)
type addr = { host : string; port : int }

let pp_addr ppf a = Fmt.pf ppf "%s:%d" a.host a.port
let addr_to_string a = Fmt.str "%s:%d" a.host a.port

(** Parse ["host:port"]. *)
let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port > 0 && port < 65536 -> Ok { host; port }
      | _ -> Error (Fmt.str "bad port in node address %S" s))
  | _ -> Error (Fmt.str "node address %S is not host:port" s)

(** Why an exchange with a node failed. *)
type error =
  | Refused of string  (** connect failed: the node is down *)
  | Timeout of float  (** connect or read deadline exceeded *)
  | Closed  (** the node hung up (EOF, EPIPE, reset) *)
  | Damaged of string  (** a frame arrived but is torn or oversized *)

let error_to_string = function
  | Refused m -> Fmt.str "connection refused: %s" m
  | Timeout s -> Fmt.str "deadline exceeded (%.1fs)" s
  | Closed -> "connection closed by node"
  | Damaged m -> Fmt.str "damaged frame: %s" m

let resolve host =
  try Ok (Unix.inet_addr_of_string host)
  with Failure _ -> (
    try Ok (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      Error (Refused (Fmt.str "cannot resolve %S" host)))

(** Deadline-guarded connect: non-blocking [connect], [select] for
    writability, then [SO_ERROR] to classify the outcome. *)
let connect ?(timeout = 5.0) addr =
  match resolve addr.host with
  | Error e -> Error e
  | Ok ip -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let give_up e =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error e
      in
      Unix.set_nonblock fd;
      match Unix.connect fd (Unix.ADDR_INET (ip, addr.port)) with
      | () ->
          Unix.clear_nonblock fd;
          Ok fd
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
        -> (
          match Unix.select [] [ fd ] [] timeout with
          | _, [], _ -> give_up (Timeout timeout)
          | _ -> (
              match Unix.getsockopt_error fd with
              | Some e -> give_up (Refused (Unix.error_message e))
              | None ->
                  Unix.clear_nonblock fd;
                  Ok fd)
          | exception Unix.Unix_error (e, _, _) ->
              give_up (Refused (Unix.error_message e)))
      | exception Unix.Unix_error (e, _, _) ->
          give_up (Refused (Unix.error_message e)))

(** Send one frame; a peer that vanished surfaces as [Closed]. *)
let send fd frame =
  try Ok (Wire.write_frame fd frame)
  with Unix.Unix_error _ | Sys_error _ -> Error Closed

(* Read exactly [n] bytes before [deadline] (absolute), selecting before
   every chunk so a stalled peer cannot wedge the caller mid-frame. *)
let read_exact_deadline fd b ~deadline =
  let n = Bytes.length b in
  let rec go off =
    if off = n then Ok ()
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then Error `Deadline
      else
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> Error `Deadline
        | _ -> (
            match Unix.read fd b off (n - off) with
            | 0 -> Error (`Eof off)
            | k -> go (off + k)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
            | exception Unix.Unix_error (e, _, _) ->
                Error (`Err (Unix.error_message e)))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (e, _, _) ->
            Error (`Err (Unix.error_message e))
  in
  go 0

(** Receive one frame within [timeout] seconds, classifying every
    failure: EOF at a frame boundary is [Closed]; a torn header or
    payload, a corrupt length prefix, and an oversized announcement are
    [Damaged]; a stall is [Timeout]. *)
let recv ?(timeout = 30.0) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let hdr = Bytes.create 10 in
  match read_exact_deadline fd hdr ~deadline with
  | Error `Deadline -> Error (Timeout timeout)
  | Error (`Eof 0) -> Error Closed
  | Error (`Eof k) -> Error (Damaged (Fmt.str "torn header (%d/10 bytes)" k))
  | Error (`Err m) -> Error (Damaged m)
  | Ok () -> (
      match Wire.frame_length hdr with
      | Error e -> Error (Damaged (Wire.frame_error_to_string e))
      | Ok len -> (
          let body = Bytes.create len in
          match read_exact_deadline fd body ~deadline with
          | Error `Deadline -> Error (Timeout timeout)
          | Error (`Eof k) ->
              Error (Damaged (Fmt.str "torn payload (%d/%d bytes)" k len))
          | Error (`Err m) -> Error (Damaged m)
          | Ok () -> Ok (Bytes.to_string body)))

(** Bind-and-listen on an ephemeral localhost port; returns the listening
    socket and the port the kernel chose.  Test harnesses bind before
    forking the node so there is no port race and no polling for
    readiness files. *)
let listen_ephemeral ?(host = "127.0.0.1") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, 0));
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | _ -> assert false

(** One request/reply exchange on a fresh connection. *)
let roundtrip ?(timeout = 5.0) addr frame =
  match connect ~timeout addr with
  | Error e -> Error e
  | Ok fd ->
      let r =
        match send fd frame with
        | Error e -> Error e
        | Ok () -> recv ~timeout fd
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r

(** Is a node daemon answering [Ping] at this address? *)
let ping ?(timeout = 1.0) addr =
  let module P = Res_serve.Protocol in
  match roundtrip ~timeout addr (P.encode_request P.Ping) with
  | Ok frame -> (
      match P.decode_reply frame with Ok (P.Pong _) -> true | _ -> false)
  | Error _ -> false
