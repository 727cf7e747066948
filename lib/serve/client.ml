(** Client side of the triage daemon's protocol: the one connection
    layer for every caller — the [res client] verbs, the cluster
    coordinator, and the test and soak harnesses.

    A daemon address is a Unix socket path or a TCP [host:port], and both
    get the same guards:

    - {b connect deadline}: the connect is non-blocking and waits in
      [select], so a partitioned node or a listener whose accept queue is
      full cannot wedge the caller in [connect];
    - {b read deadline}: a reply is read in chunks with a [select] before
      every chunk ({!Res_parallel.Wire.read_frame_result}), so a peer that
      stalls mid-frame surfaces as [Timeout], never a hang;
    - {b typed failures}: unreachable, timed out, closed and damaged are
      distinct, because callers react differently to each (retry with
      backoff, give up, fail over to another node, report a bug).

    Oversized or corrupt length prefixes are rejected before any
    allocation, by the same {!Res_parallel.Wire.frame_length} parse the
    worker pool and the daemon use. *)

module P = Protocol
module Wire = Res_parallel.Wire

(* --- addresses --------------------------------------------------------- *)

(** Where a daemon listens. *)
type addr = Unix_socket of string | Tcp of string * int

let addr_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Fmt.str "%s:%d" host port

let pp_addr = Fmt.of_to_string addr_to_string

(** Parse a daemon address.  [HOST:PORT] with a decimal port is TCP;
    any other string, and any string holding a [/], is a Unix socket
    path.  Port 0 parses: a listener bound there gets an ephemeral
    port. *)
let parse_addr s =
  let tcp =
    match String.rindex_opt s ':' with
    | Some i when not (String.contains s '/') ->
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        if port <> "" && String.for_all (fun c -> c >= '0' && c <= '9') port
        then Some (String.sub s 0 i, int_of_string_opt port)
        else None
    | _ -> None
  in
  match tcp with
  | None -> Ok (Unix_socket s)
  | Some ("", _) -> Error (Fmt.str "no host in address %S" s)
  | Some (host, Some port) when port <= 65535 -> Ok (Tcp (host, port))
  | Some _ -> Error (Fmt.str "bad port in address %S" s)

let sockaddr = function
  | Unix_socket path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      let inet ip = Ok (Unix.ADDR_INET (ip, port)) in
      match Unix.inet_addr_of_string host with
      | ip -> inet ip
      | exception Failure _ -> (
          let unresolved = Error (Fmt.str "cannot resolve host %S" host) in
          match (Unix.gethostbyname host).Unix.h_addr_list with
          | [||] -> unresolved
          | ips -> inet ips.(0)
          | exception Not_found -> unresolved))

(** Bind and listen on [addr].  A TCP listener reuses its address, so a
    restarted daemon rebinds at once.
    @raise Failure if the host does not resolve. *)
let listen addr =
  match sockaddr addr with
  | Error m -> failwith m
  | Ok sa ->
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      (match sa with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix.ADDR_UNIX _ -> ());
      (try
         Unix.bind fd sa;
         Unix.listen fd 64
       with e ->
         Unix.close fd;
         raise e);
      fd

(** The address a listening socket is bound to; for a TCP listener bound
    to port 0, the port the kernel chose. *)
let bound_addr fd =
  match Unix.getsockname fd with
  | Unix.ADDR_UNIX path -> Unix_socket path
  | Unix.ADDR_INET (ip, port) -> Tcp (Unix.string_of_inet_addr ip, port)

(** Bind-and-listen on an ephemeral localhost port.  Test harnesses bind
    before forking the daemon, so there is no port race and no polling
    for readiness files. *)
let listen_ephemeral () =
  let fd = listen (Tcp ("127.0.0.1", 0)) in
  (fd, bound_addr fd)

(* --- exchanges ----------------------------------------------------------- *)

(** Why an exchange with a daemon failed. *)
type error =
  | Unreachable of string  (** connect failed: no daemon there *)
  | Timeout of float  (** connect or reply deadline exceeded *)
  | Closed  (** the daemon hung up (EOF, EPIPE, reset) *)
  | Damaged of string  (** a reply arrived but is torn, oversized or unsealed *)

let error_to_string = function
  | Unreachable m -> Fmt.str "cannot reach daemon: %s" m
  | Timeout s -> Fmt.str "timed out after %.1fs" s
  | Closed -> "daemon closed the connection"
  | Damaged m -> Fmt.str "bad reply: %s" m

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(** Connect within [timeout] seconds.  TCP connects in the background and
    is done once [select] reports the socket writable ([SO_ERROR] tells
    how it ended); a Unix socket whose accept queue is full refuses at
    once ([EAGAIN]), so it is retried until the deadline. *)
let connect ?(timeout = 5.0) addr =
  match sockaddr addr with
  | Error m -> Error (Unreachable m)
  | Ok sa ->
      let deadline = Unix.gettimeofday () +. timeout in
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      let give_up e =
        close fd;
        Error e
      in
      let connected () =
        Unix.clear_nonblock fd;
        Ok fd
      in
      Unix.set_nonblock fd;
      let rec attempt () =
        match Unix.connect fd sa with
        | () -> connected ()
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
            if not (Wire.ready_by ~write:true fd deadline) then
              give_up (Timeout timeout)
            else
              match Unix.getsockopt_error fd with
              | Some e -> give_up (Unreachable (Unix.error_message e))
              | None -> connected ())
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining <= 0. then give_up (Timeout timeout)
            else begin
              Unix.sleepf (Float.min 0.01 remaining);
              attempt ()
            end
        | exception Unix.Unix_error (e, _, _) ->
            give_up (Unreachable (Unix.error_message e))
      in
      attempt ()

(** Send one request; a daemon that vanished surfaces as [Closed]. *)
let send fd req =
  try Ok (P.write_frame fd (P.encode_request req))
  with Unix.Unix_error _ | Sys_error _ -> Error Closed

(** Receive one frame within [timeout] seconds, classifying every
    failure: EOF at a frame boundary is [Closed]; a torn header or
    payload, a corrupt length prefix and an oversized announcement are
    [Damaged]; a stall, even mid-frame, is [Timeout]. *)
let recv_frame ?(timeout = 30.0) fd =
  match
    Wire.read_frame_result ~deadline:(Unix.gettimeofday () +. timeout) fd
  with
  | Ok frame -> Ok frame
  | Error Wire.Frame_eof -> Error Closed
  | Error Wire.Frame_timeout -> Error (Timeout timeout)
  | Error e -> Error (Damaged (Wire.frame_error_to_string e))

(** Receive and decode one reply; a frame that fails its seal or parse
    is [Damaged]. *)
let recv ?timeout fd =
  Result.bind (recv_frame ?timeout fd) (fun frame ->
      Result.map_error (fun m -> Damaged m) (P.decode_reply frame))

(* --- transient-failure retries ---------------------------------------- *)

(* Jitter desynchronizes clients that all observed the same daemon
   restart: without it they would retry in lockstep and re-create the
   very thundering herd the backoff is meant to dissipate. *)
let retry_rng = lazy (Random.State.make_self_init ())

let jittered d = d *. (0.5 +. Random.State.float (Lazy.force retry_rng) 0.5)

(** Run one connect-and-exchange attempt, retrying transient failures
    (connection refused — the daemon is restarting; the old incarnation
    hung up mid-exchange) with jittered capped exponential backoff. *)
let with_retries ?(retries = 4) ?(retry_base = 0.05) f =
  let rec go n =
    match f () with
    | Error (Unreachable _ | Closed) as e ->
        if n >= retries then e
        else begin
          Unix.sleepf
            (jittered
               (Res_parallel.Supervisor.backoff_delay ~base:retry_base ~cap:0.5 n));
          go (n + 1)
        end
    | r -> r
  in
  go 0

(** One-shot request/reply exchange on a fresh connection; [timeout]
    bounds the connect and the reply separately. *)
let roundtrip ?timeout addr req =
  match connect ?timeout addr with
  | Error e -> Error e
  | Ok fd ->
      let r = Result.bind (send fd req) (fun () -> recv ?timeout fd) in
      close fd;
      r

(** Submit and return the immediate admission reply ([Accepted] or a
    typed rejection) together with the live connection, on which an
    accepted request's [Result] will later be pushed.  A daemon that is
    mid-restart (connection refused, or it hung up before answering) is
    retried with jittered backoff instead of surfacing immediately. *)
let submit ?timeout ?retries ?retry_base addr ~prog ~dump ?deadline_ms ?fuel ()
    =
  with_retries ?retries ?retry_base (fun () ->
      match connect addr with
      | Error e -> Error e
      | Ok fd -> (
          let req =
            P.Submit
              {
                sb_prog = prog;
                sb_dump = dump;
                sb_deadline_ms = deadline_ms;
                sb_fuel = fuel;
              }
          in
          match Result.bind (send fd req) (fun () -> recv ?timeout fd) with
          | Error e ->
              close fd;
              Error e
          | Ok reply -> Ok (fd, reply)))

(** Submit and block until the terminal [Result] (or a rejection).
    Returns the admission reply and, when accepted, the result. *)
let submit_wait ?timeout ?retries ?retry_base addr ~prog ~dump ?deadline_ms
    ?fuel () =
  match
    submit ?timeout ?retries ?retry_base addr ~prog ~dump ?deadline_ms ?fuel ()
  with
  | Error e -> Error e
  | Ok (fd, (P.Accepted _ as adm)) ->
      let r = recv ?timeout fd in
      close fd;
      Result.map (fun result -> (adm, Some result)) r
  | Ok (fd, reply) ->
      close fd;
      Ok (reply, None)

let fetch ?timeout addr id = roundtrip ?timeout addr (P.Fetch id)
let status ?timeout addr = roundtrip ?timeout addr P.Status
let drain ?timeout addr = roundtrip ?timeout addr P.Drain
let ping ?timeout addr = roundtrip ?timeout addr P.Ping

(** Does a daemon answer [Ping] at [addr] within [timeout] seconds? *)
let alive ?(timeout = 1.0) addr =
  match ping ~timeout addr with Ok (P.Pong _) -> true | _ -> false

(** Poll [fetch] until the request reaches its terminal [Result], up to
    [deadline] seconds.  Transient connection failures are retried with
    jittered exponential backoff — the daemon may be mid-restart, which
    is exactly when polling matters, and its reborn incarnation must not
    be greeted by every waiting client at once. *)
let await_result ?(deadline = 30.0) ?(interval = 0.05) addr id =
  let until = Unix.gettimeofday () +. deadline in
  let rec go misses =
    if Unix.gettimeofday () > until then Error (Timeout deadline)
    else
      match fetch ~timeout:5.0 addr id with
      | Ok (P.Result _ as r) -> Ok r
      | Ok (P.Unknown _ as r) -> Ok r
      | Ok _ ->
          (* still pending: steady-rate poll *)
          Unix.sleepf (jittered interval);
          go 0
      | Error (Unreachable _ | Closed | Timeout _) ->
          Unix.sleepf
            (jittered
               (Res_parallel.Supervisor.backoff_delay ~base:interval ~cap:0.5 misses));
          go (misses + 1)
      | Error e -> Error e
  in
  go 0
