(** The triage daemon: a long-running analysis service engineered to stay
    alive under hostile load.

    One process owns a listening socket (a Unix socket path, or TCP
    [host:port] for a cluster node) and a durable request spool
    ({!Spool}); clients submit (program, coredump) pairs and the daemon
    runs each analysis in a {e forked worker} under a wall/fuel budget.
    The design is defensive at every boundary:

    - {b Bounded admission}: at most [capacity] requests queue.  Beyond
      that, submissions get a typed [Rejected_overload] immediately —
      load is shed explicitly, never absorbed into unbounded memory or
      latency.
    - {b Circuit breakers} ({!Breaker}): a workload signature that keeps
      exhausting its budget is fast-failed with [Rejected_breaker] until
      a cooldown passes and a half-open probe succeeds.
    - {b Worker supervision} ({!Res_parallel.Supervisor}): each request
      is a unit on the batch's reusable local slots, its payload the
      admitted request frame; a worker serves requests while the queue
      holds work and retires when it empties.  A worker that dies (bug,
      OOM-kill, fault injection) is restarted with capped exponential
      backoff, up to [worker_attempts] tries; a worker that overstays
      its deadline plus [hard_grace] is SIGKILLed and the request is
      reported as a budget exhaustion.  Either way the request's client
      gets {e an answer} — the daemon never goes silent on an accepted
      request.
    - {b Crash-only recovery}: a submit is journaled to the spool
      {e before} the [Accepted] reply is sent, and its result is
      journaled before it is reported completed.  A daemon that is
      SIGKILLed mid-flight re-admits every accepted-but-unfinished
      submit on the next boot; completed results survive for [fetch].
      A coordinator's triage unit is not spooled: the coordinator owns
      its retries and its identity, and no client would wait for a
      re-run one.
    - {b Graceful drain}: SIGTERM (or a [drain] request) stops admission,
      finishes the queue, and exits 0.

    Single-threaded [select] event loop that embeds the supervisor's; the
    only concurrency is forked workers, each talking back over a pipe
    with the same length-prefixed frames the client socket uses. *)

module Io = Res_vm.Coredump_io
module Res = Res_core.Res
module Report = Res_core.Report
module Backstep = Res_core.Backstep
module Budget = Res_core.Budget
module Supervisor = Res_parallel.Supervisor
module P = Protocol

type config = {
  listen : Client.addr;
      (** a Unix socket path, or TCP [host:port] for a cluster node that
          [res coordinate] shards across *)
  prebound : Unix.file_descr option;
      (** an already-bound, already-listening socket to serve on (test
          harnesses bind ephemeral ports race-free and pass the fd
          through fork); overrides [listen] *)
  spool_dir : string;
  cache_dir : string option;
      (** content-addressed result cache ({!Res_cache.Cache}): a
          submission whose exact (program, dump, budgets, config) was
          answered before is served from disk without consuming a queue
          slot or a worker.  [None] disables caching. *)
  jobs : int;  (** max concurrent analysis workers *)
  capacity : int;  (** max queued (not yet running) requests *)
  default_deadline : float option;  (** seconds, when the client sets none *)
  default_fuel : int option;
  hard_grace : float;  (** extra wall beyond the deadline before SIGKILL *)
  breaker_threshold : int;
  breaker_cooldown : float;
  worker_attempts : int;  (** analysis tries per request across worker deaths *)
  analyze_config : Res.config;
  fi_kill_workers : int list;
      (** fault injection: SIGKILL the Nth forked worker (1-based, in fork
          order) right after it starts — simulates random worker death *)
  fi_worker_delay : float;
      (** fault injection: every worker sleeps this long before analyzing —
          simulates slow analyses, so soak tests can build queue pressure
          deterministically *)
  fi_corrupt_rows : string;
      (** fault injection: [""] honest; ["name"] returns triage rows
          labelled with the wrong unit name; ["fields"] returns rows with
          plausible but fabricated verdict fields — a byzantine node, for
          campaigns that must prove the coordinator catches one *)
  log : string -> unit;
}

let default_config =
  {
    listen = Client.Unix_socket "res-serve.sock";
    prebound = None;
    spool_dir = "res-spool";
    cache_dir = None;
    jobs = 2;
    capacity = 8;
    default_deadline = Some 30.;
    default_fuel = None;
    hard_grace = 5.;
    breaker_threshold = 3;
    breaker_cooldown = 5.;
    worker_attempts = 3;
    analyze_config = Res.default_config;
    fi_kill_workers = [];
    fi_worker_delay = 0.;
    fi_corrupt_rows = "";
    log = ignore;
  }

(* --- per-request state ------------------------------------------------ *)

(** What kind of answer a job owes: a full analysis report ([Result]) or
    a cluster coordinator's triage row keyed by the unit's corpus name. *)
type task = Analyze | Triage_unit of string

(** What admission and a worker read of a [Submit] or [Triage] request. *)
type submission = {
  s_task : task;
  s_prog : string;  (** program text *)
  s_dump : string;  (** coredump text *)
  s_deadline_ms : int option;
  s_fuel : int option;
}

let submission = function
  | P.Submit { sb_prog; sb_dump; sb_deadline_ms; sb_fuel } ->
      Some
        {
          s_task = Analyze;
          s_prog = sb_prog;
          s_dump = sb_dump;
          s_deadline_ms = sb_deadline_ms;
          s_fuel = sb_fuel;
        }
  | P.Triage { tg_name; tg_prog; tg_dump; tg_deadline_ms; tg_fuel } ->
      Some
        {
          s_task = Triage_unit tg_name;
          s_prog = tg_prog;
          s_dump = tg_dump;
          s_deadline_ms = tg_deadline_ms;
          s_fuel = tg_fuel;
        }
  | _ -> None

(** A request's effective budgets: the daemon defaults where it sets
    none. *)
let effective cfg ~deadline_ms ~fuel =
  ( (match deadline_ms with
    | Some ms -> Some (float_of_int ms /. 1000.)
    | None -> cfg.default_deadline),
    match fuel with Some _ -> fuel | None -> cfg.default_fuel )

type job = {
  j_id : string;
  j_task : task;
  j_frame : string;  (** the admitted request frame: the worker's payload *)
  j_signature : string;
  j_deadline : float option;  (** the effective wall budget *)
  j_cache_key : string;
      (** content key the finished reply is stored under ([""] when the
          cache is off) *)
  j_enqueued : float;
  mutable j_waiters : Unix.file_descr list;
      (** client connections awaiting this job's terminal reply *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  sig_rd : Unix.file_descr;
  sig_wr : Unix.file_descr;
  spool : Spool.t;
  cache : Res_cache.Cache.t option;
  breaker : Breaker.t;
  mutable clients : Unix.file_descr list;
  active : (string, job) Hashtbl.t;  (** admitted and not yet finished *)
  sup : (job, Supervisor.child, string) Supervisor.t;
      (** the admitted jobs, queued or running on a worker *)
  mutable draining : bool;
  (* counters for [status] *)
  mutable n_accepted : int;
  mutable n_completed : int;
  mutable n_shed : int;
  mutable n_breaker_rejected : int;
  mutable n_recovered : int;
  mutable n_cache_hits : int;
}

let queued_count t = Supervisor.queued t.sup
let running_count t = List.length (Supervisor.running t.sup)

(** Parse and validate a submission's payloads (cheap, bounded work):
    malformed inputs earn a typed [Err] at admission without ever
    consuming a worker slot or a spool entry. *)
let parse_submission s =
  match Res_ir.Parser.parse_result s.s_prog with
  | Error msg -> Error (Fmt.str "bad program: %s" msg)
  | Ok prog -> (
      match Res_ir.Validate.check prog with
      | _ :: _ as errs ->
          Error
            (Fmt.str "invalid program: %a"
               Fmt.(list ~sep:(any "; ") Res_ir.Validate.pp_error)
               errs)
      | [] -> (
          match Io.of_string_result s.s_dump with
          | Error e -> Error (Fmt.str "bad coredump: %s" (Io.dump_error_to_string e))
          | Ok { Io.dump; _ } -> Ok (prog, dump)))

(** An admitted request frame, decoded and parsed again: a worker's
    input, and what recovery re-admits from the spool. *)
let parse_frame frame =
  match P.decode_request frame with
  | Error msg -> Error (Fmt.str "undecodable: %s" msg)
  | Ok req -> (
      match submission req with
      | None -> Error "not a submission"
      | Some s ->
          Result.map (fun (prog, dump) -> (s, prog, dump)) (parse_submission s))

(* --- worker child ----------------------------------------------------- *)

(** The analysis of one admitted request, in a worker: the reply frame.
    A worker process is the isolation boundary: a segfaulting solver, a
    runaway allocation, or a fault-injected SIGKILL takes down one
    attempt and its process, never the daemon.  A worker serves request
    after request while the queue holds work, and resets the symbol
    counter for each, so the report bodies are byte-identical to a
    serial offline [res analyze] of the same dump.  A [Result] leaves
    with the placeholder id ["-"]; the daemon stamps the request's. *)
let worker_child cfg s prog dump =
  let t0 = Unix.gettimeofday () in
  if cfg.fi_worker_delay > 0. then Unix.sleepf cfg.fi_worker_delay;
  Res_solver.Expr.reset_counter_for_tests ();
  let budget =
    match effective cfg ~deadline_ms:s.s_deadline_ms ~fuel:s.s_fuel with
    | None, None -> None
    | d, f -> Some (Budget.create ?wall_seconds:d ?fuel:f ())
  in
  let reply =
    match s.s_task with
    | Analyze ->
        let ctx = Backstep.make_ctx prog in
        let outcome =
          try Res.analyze ~config:cfg.analyze_config ?budget ctx dump
          with exn -> Res.Failed (Res.Internal (Printexc.to_string exn))
        in
        P.Result
          {
            rs_id = "-";
            rs_outcome = Res.outcome_name outcome;
            rs_timeout = Res.is_budget_partial outcome;
            rs_elapsed_ms =
              int_of_float ((Unix.gettimeofday () -. t0) *. 1000.);
            rs_body = Report.report_list_to_string ctx (Res.analysis outcome);
          }
    | Triage_unit name ->
        let rw_verdict =
          Res_usecases.Triage.triage_one ~config:cfg.analyze_config ?budget
            prog dump
        in
        P.Row
          {
            rw_name = name;
            rw_elapsed_ms =
              int_of_float ((Unix.gettimeofday () -. t0) *. 1000.);
            rw_verdict;
          }
  in
  (* byzantine fault injection: corrupt the honest answer just before it
     leaves the worker, so the bytes on the wire are a perfectly sealed,
     schema-valid frame whose content is a lie *)
  let reply =
    match (reply, cfg.fi_corrupt_rows) with
    | P.Row r, "name" -> P.Row { r with rw_name = r.rw_name ^ "-evil" }
    | P.Row r, "fields" ->
        let v = r.rw_verdict in
        P.Row
          {
            r with
            rw_verdict =
              {
                v with
                c_bucket = "fabricated-bucket";
                c_cause = "fabricated cause";
                c_nodes = v.c_nodes + 7;
              };
          }
    | r, _ -> r
  in
  P.encode_reply reply

(** A worker's factory, run in the child right after the fork: the child
    keeps only its own pipes (holding the listen socket or a client
    connection open would mask EOFs), then answers each request frame it
    is sent. *)
let worker t () =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    (t.listen_fd :: t.sig_rd :: t.sig_wr :: t.clients);
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  fun frame ->
    match parse_frame frame with
    | Ok (s, prog, dump) -> worker_child t.cfg s prog dump
    | Error why -> failwith why

(* --- result cache ----------------------------------------------------- *)

(** The config part of a cache key: the batch key
    ({!Res_parallel.Batch.config_key}: every analysis knob and the
    {e effective} budgets, daemon defaults applied, so a request that
    says nothing and one that spells out the default share an entry).
    A triage unit's verdict is stored as batch triage stores it, under
    that key itself, so a local [res triage] over this cache is served
    the node's verdicts; a submit's [Result] is tagged with the reply
    codec version (so a protocol bump turns old entries into honest
    misses). *)
let cache_config cfg ~task ~deadline_ms ~fuel =
  let wall, fuel = effective cfg ~deadline_ms ~fuel in
  let key =
    Res_parallel.Batch.config_key ?budget_wall:wall ?budget_fuel:fuel
      cfg.analyze_config
  in
  match task with
  | Triage_unit _ -> key
  | Analyze -> Fmt.str "%s serve %s" P.rep_header key

let cache_key_for t s =
  match t.cache with
  | None -> ""
  | Some _ ->
      Res_cache.Cache.key ~prog:s.s_prog ~dump:s.s_dump
        ~config:
          (cache_config t.cfg ~task:s.s_task ~deadline_ms:s.s_deadline_ms
             ~fuel:s.s_fuel)

(** The reply stored under [key], if any: a submit's [Result], or a
    triage unit's verdict as a row named after this request's unit. *)
let cache_lookup t task key =
  match t.cache with
  | None -> None
  | Some c -> (
      let body = Res_cache.Cache.find c key in
      match task with
      | Analyze -> (
          match Option.map P.decode_reply body with
          | Some (Ok (P.Result _ as r)) -> Some r
          | _ -> None)
      | Triage_unit name ->
          Option.bind body Res_cache.Cache.decode_row
          |> Option.map (fun rw_verdict ->
                 P.Row { rw_name = name; rw_elapsed_ms = 0; rw_verdict }))

(** Store a worker-produced terminal reply: a [Result] identity-normalized
    (id and elapsed time are per-request noise, not part of the answer),
    a row as its verdict.  Timed-out and synthetic replies are never
    cached: both describe what {e this} run managed, not what the inputs
    mean. *)
let cache_store t job (reply : P.reply) =
  match (t.cache, reply) with
  | Some c, P.Result r when not r.rs_timeout ->
      Res_cache.Cache.store c job.j_cache_key
        (P.encode_reply (P.Result { r with rs_id = "cached"; rs_elapsed_ms = 0 }))
  | Some c, P.Row r when not r.rw_verdict.c_timeout ->
      Res_cache.Cache.store c job.j_cache_key
        (Res_cache.Cache.encode_row r.rw_verdict)
  | _ -> ()

(* --- result plumbing -------------------------------------------------- *)

(** Push a frame to a client, tolerating clients that vanished: a closed
    or broken connection just means the client will [fetch] the spooled
    result later. *)
let push t fd frame =
  try P.write_frame fd frame
  with Unix.Unix_error _ | Sys_error _ ->
    t.cfg.log (Fmt.str "push to departed client dropped")

(** A reply names its request only as a [Result]'s id. *)
let stamp id = function P.Result r -> P.Result { r with rs_id = id } | r -> r

(** A job reached its terminal reply: journal a submit's durably, feed
    the breaker, and push it to every waiting client.  This is the {e only}
    way an accepted request leaves the daemon — every code path that
    retires a job funnels through here, which is what makes "accepted
    implies answered" an invariant rather than a hope. *)
let finish ?(store = true) t job (reply : P.reply) =
  let frame = P.encode_reply reply in
  if job.j_task = Analyze then Spool.complete t.spool ~id:job.j_id ~frame;
  if store then cache_store t job reply;
  (match reply with
  | P.Result { rs_timeout = timeout; _ }
  | P.Row { rw_verdict = { c_timeout = timeout; _ }; _ } ->
      if timeout then Breaker.record_timeout t.breaker job.j_signature
      else Breaker.record_success t.breaker job.j_signature
  | _ -> ());
  Hashtbl.remove t.active job.j_id;
  List.iter (fun fd -> push t fd frame) job.j_waiters;
  job.j_waiters <- [];
  t.n_completed <- t.n_completed + 1;
  t.cfg.log (Fmt.str "finished %s" job.j_id)

(** The terminal reply for a job the daemon had to give up on (worker
    died [worker_attempts] times, or blew through the hard deadline).
    [timeout] routes the failure into the breaker as a budget
    exhaustion; otherwise it counts as an ordinary failure. *)
let synthetic cfg job ~outcome ~timeout ~why =
  cfg.log (Fmt.str "synthesizing %s result for %s: %s" outcome job.j_id why);
  let elapsed_ms =
    int_of_float ((Unix.gettimeofday () -. job.j_enqueued) *. 1000.)
  in
  match job.j_task with
  | Analyze ->
      P.Result
        {
          rs_id = job.j_id;
          rs_outcome = outcome;
          rs_timeout = timeout;
          rs_elapsed_ms = elapsed_ms;
          rs_body = "";
        }
  | Triage_unit name ->
      (* the worker-lost bucket tells the coordinator this row is the
         node giving up, not a triage verdict: it reschedules the unit
         instead of applying the row *)
      P.Row
        {
          rw_name = name;
          rw_elapsed_ms = elapsed_ms;
          rw_verdict =
            {
              (Res_cache.Cache.failed_row ~bucket:"worker-lost" ~cause:why)
              with
              c_outcome = outcome;
              c_timeout = timeout;
            };
        }

(** A job's worker answered, or supervision gave up on it.  A synthetic
    reply is what the daemon managed, not what the inputs mean: it never
    warms the cache. *)
let on_done t job = function
  | Ok frame -> (
      match P.decode_reply frame with
      | Ok ((P.Result _ | P.Row _) as r) -> finish t job (stamp job.j_id r)
      | Ok _ | Error _ ->
          finish ~store:false t job
            (synthetic t.cfg job ~outcome:"failed" ~timeout:false
               ~why:"worker produced a malformed result frame"))
  | Error why ->
      finish ~store:false t job
        (synthetic t.cfg job ~outcome:"failed" ~timeout:false ~why)

(* --- admission -------------------------------------------------------- *)

let status_reply t =
  P.Status_reply
    {
      st_accepted = t.n_accepted;
      st_completed = t.n_completed;
      st_shed = t.n_shed;
      st_breaker_rejected = t.n_breaker_rejected;
      st_recovered = t.n_recovered;
      st_queued = queued_count t;
      st_running = running_count t;
      st_worker_restarts = t.sup.retries;
      st_breakers_open = Breaker.open_count t.breaker;
      st_cache_hits = t.n_cache_hits;
      st_draining = t.draining;
      st_breakers = Breaker.entries t.breaker;
    }

(** Queue an admitted request frame for a worker. *)
let enqueue ?(waiters = []) t ~id ~frame ~signature ~key s =
  let job =
    {
      j_id = id;
      j_task = s.s_task;
      j_frame = frame;
      j_signature = signature;
      j_deadline =
        fst (effective t.cfg ~deadline_ms:s.s_deadline_ms ~fuel:s.s_fuel);
      j_cache_key = key;
      j_enqueued = Unix.gettimeofday ();
      j_waiters = waiters;
    }
  in
  Hashtbl.replace t.active id job;
  Supervisor.add t.sup job

(** Admission of a submit or a triage unit, in strict order: drain gate;
    the cache, on the {e raw request bytes} (identical bytes imply an
    identical answer, so a hit never touches the queue, the breaker, or
    a worker); parse gate, capacity gate, breaker gate; then the accept,
    durable (spooled) for a submit and in memory only for a triage unit,
    with the client [fd] waiting for the terminal reply.  Capacity is
    checked {e before} the breaker so a shed request can never leave a
    breaker stuck half-open waiting for a probe that was never
    admitted. *)
let admit t fd frame s =
  let reply r = push t fd (P.encode_reply r) in
  let accepted id =
    reply (P.Accepted { ac_id = id; ac_queued = queued_count t })
  in
  if t.draining then reply P.Rejected_draining
  else
    let key = cache_key_for t s in
    match cache_lookup t s.s_task key with
    | Some hit ->
        t.n_cache_hits <- t.n_cache_hits + 1;
        let id, hit =
          match s.s_task with
          | Analyze ->
              (* the conversation stays real: the hit is journaled under
                 a fresh spool id, so a later [fetch] — this incarnation
                 or the next — replays it like a computed answer *)
              let id = Spool.accept t.spool ~frame in
              let hit = stamp id hit in
              Spool.complete t.spool ~id ~frame:(P.encode_reply hit);
              t.n_accepted <- t.n_accepted + 1;
              t.n_completed <- t.n_completed + 1;
              (id, hit)
          | Triage_unit _ -> ("cached", hit)
        in
        t.cfg.log (Fmt.str "cache hit %s -> %s" key id);
        accepted id;
        reply hit
    | None -> (
        match parse_submission s with
        | Error msg -> reply (P.Err msg)
        | Ok _ when queued_count t >= t.cfg.capacity ->
            t.n_shed <- t.n_shed + 1;
            reply
              (P.Rejected_overload
                 { ro_queued = queued_count t; ro_capacity = t.cfg.capacity })
        | Ok (_, dump) -> (
            let signature = Res_usecases.Triage.wer_key dump in
            match Breaker.check t.breaker signature with
            | Breaker.Reject { retry_ms } ->
                t.n_breaker_rejected <- t.n_breaker_rejected + 1;
                reply
                  (P.Rejected_breaker
                     { rb_signature = signature; rb_retry_ms = retry_ms })
            | Breaker.Pass | Breaker.Probe ->
                let id =
                  match s.s_task with
                  | Analyze -> Spool.accept t.spool ~frame
                  | Triage_unit _ ->
                      (* names the job in memory only: the id is never
                         fetched, and the coordinator retries the unit *)
                      Fmt.str "u%06d" t.n_accepted
                in
                enqueue t ~id ~frame ~signature ~key ~waiters:[ fd ] s;
                t.n_accepted <- t.n_accepted + 1;
                t.cfg.log (Fmt.str "accepted %s (sig %s)" id signature);
                accepted id))

let handle_fetch t id =
  match Spool.read_result t.spool id with
  | Ok frame -> `Raw frame  (* the journaled Result reply, verbatim *)
  | Error _ -> (
      match Hashtbl.find_opt t.active id with
      | Some j ->
          let running = List.memq j (Supervisor.running t.sup) in
          `Reply
            (P.Pending
               { pd_id = id; pd_state = (if running then "running" else "queued") })
      | None when Spool.has_request t.spool id ->
        (* accepted by a previous incarnation; recovery will run it *)
        `Reply (P.Pending { pd_id = id; pd_state = "queued" })
      | None -> `Reply (P.Unknown id))

(** One decoded client request → one immediate reply (plus, for an
    accepted submit or triage unit, a later pushed terminal reply). *)
let handle_request t fd frame req =
  match req with
  | P.Submit _ | P.Triage _ -> Option.iter (admit t fd frame) (submission req)
  | P.Fetch id -> (
      match handle_fetch t id with
      | `Raw frame -> push t fd frame
      | `Reply r -> push t fd (P.encode_reply r))
  | P.Status -> push t fd (P.encode_reply (status_reply t))
  | P.Drain ->
      t.draining <- true;
      t.cfg.log "drain requested";
      push t fd
        (P.encode_reply
           (P.Drained { dr_remaining = queued_count t + running_count t }))
  | P.Ping -> push t fd (P.encode_reply (P.Pong (Unix.getpid ())))

let drop_client t fd =
  t.clients <- List.filter (fun fd' -> fd' <> fd) t.clients;
  Hashtbl.iter
    (fun _ j -> j.j_waiters <- List.filter (fun fd' -> fd' <> fd) j.j_waiters)
    t.active;
  try Unix.close fd with Unix.Unix_error _ -> ()

let on_client_event t fd =
  match (try P.read_frame fd with _ -> None) with
  | None -> drop_client t fd
  | Some frame -> (
      match P.decode_request frame with
      | Ok req -> handle_request t fd frame req
      | Error msg -> push t fd (P.encode_reply (P.Err (Fmt.str "bad request: %s" msg))))

(* --- boot: crash-only recovery ---------------------------------------- *)

(** Re-admit every accepted-but-unfinished submit from the spool.  The
    journaled submit frame is re-decoded and re-parsed exactly as a
    worker parses it; a journaled request that no longer parses (it was
    validated at accept time, so this means on-disk damage beyond the
    seal), or is not a submit (a triage unit spooled by an older build),
    is retired with a synthetic failure rather than dropped. *)
let recover t =
  List.iter
    (fun id ->
      let fail why =
        (* retire the damaged spool entry durably — it still gets an
           answer, just not an analysis *)
        t.cfg.log (Fmt.str "retiring unrecoverable %s: %s" id why);
        Spool.complete t.spool ~id
          ~frame:
            (P.encode_reply
               (P.Result
                  {
                    rs_id = id;
                    rs_outcome = "failed";
                    rs_timeout = false;
                    rs_elapsed_ms = 0;
                    rs_body = "";
                  }));
        t.n_completed <- t.n_completed + 1
      in
      match Spool.read_request t.spool id with
      | Error e -> fail (Fmt.str "spooled request unreadable: %s" (Io.dump_error_to_string e))
      | Ok frame -> (
          match parse_frame frame with
          | Error why ->
              fail (Fmt.str "spooled request no longer parses: %s" why)
          | Ok ({ s_task = Triage_unit _; _ }, _, _) ->
              fail "spooled request is not a submit"
          | Ok (s, _, dump) ->
              enqueue t ~id ~frame
                ~signature:(Res_usecases.Triage.wer_key dump)
                ~key:(cache_key_for t s) s;
              t.n_recovered <- t.n_recovered + 1;
              t.cfg.log (Fmt.str "recovered %s from spool" id)))
    (Spool.pending t.spool)

(* --- event loop ------------------------------------------------------- *)

let run (cfg : config) =
  let spool = Spool.openr cfg.spool_dir in
  (* only a socket file this daemon binds is its to remove *)
  let remove_socket_file () =
    match (cfg.prebound, cfg.listen) with
    | None, Client.Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  in
  let listen_fd =
    match cfg.prebound with
    | Some fd -> fd
    | None ->
        (* a previous incarnation's socket is stale by definition: we own
           the spool, so we own the address *)
        remove_socket_file ();
        Client.listen cfg.listen
  in
  let sig_rd, sig_wr = Unix.pipe () in
  (* each request is a unit on the batch's reusable local slots, whose
     payload is the admitted request frame *)
  let self = ref None in
  let slots, _ =
    Supervisor.local ~jobs:cfg.jobs
      ~payload:(fun j -> j.j_frame)
      ~worker:(fun () -> worker (Option.get !self) ())
      ~kill:(fun j ordinal ->
        List.mem ordinal cfg.fi_kill_workers
        && begin
             cfg.log
               (Fmt.str "fault injection: SIGKILL worker %d (%s)" ordinal j.j_id);
             true
           end)
      ()
  in
  let sup =
    Supervisor.create ~attempts:cfg.worker_attempts
      ~deadline:(fun j -> Option.map (fun d -> d +. cfg.hard_grace) j.j_deadline)
      ~on_deadline:(fun j _ ->
        (* it overstayed deadline + grace: report it as the budget
           exhaustion it is; retrying would just burn another slot *)
        Supervisor.Done
          (P.encode_reply
             (synthetic cfg j ~outcome:"partial" ~timeout:true
                ~why:"hard deadline exceeded (worker SIGKILLed)")))
      slots
  in
  let t =
    {
      cfg;
      listen_fd;
      sig_rd;
      sig_wr;
      spool;
      cache = Option.map Res_cache.Cache.openr cfg.cache_dir;
      breaker =
        Breaker.create ~threshold:cfg.breaker_threshold
          ~cooldown:cfg.breaker_cooldown ();
      clients = [];
      active = Hashtbl.create 16;
      sup;
      draining = false;
      n_accepted = 0;
      n_completed = 0;
      n_shed = 0;
      n_breaker_rejected = 0;
      n_recovered = 0;
      n_cache_hits = 0;
    }
  in
  self := Some t;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let request_drain _ =
    (* async-signal-safe: one byte down the self-pipe wakes the loop *)
    try ignore (Unix.write_substring t.sig_wr "T" 0 1) with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_drain);
  recover t;
  Supervisor.dispatch t.sup (on_done t);
  cfg.log
    (Fmt.str "listening on %a (jobs=%d capacity=%d, %d recovered)"
       Client.pp_addr (Client.bound_addr listen_fd) cfg.jobs cfg.capacity
       t.n_recovered);
  while not (t.draining && Supervisor.idle t.sup) do
    let read_fds =
      (if t.draining then [] else [ t.listen_fd ])
      @ (t.sig_rd :: t.clients)
      @ Supervisor.fds t.sup
    in
    let ready, _, _ =
      try Unix.select read_fds [] [] (Supervisor.timeout t.sup)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.sig_rd ready then begin
      let buf = Bytes.create 16 in
      (try ignore (Unix.read t.sig_rd buf 0 16) with Unix.Unix_error _ -> ());
      if not t.draining then begin
        t.draining <- true;
        t.cfg.log "SIGTERM: draining"
      end
    end;
    if (not t.draining) && List.mem t.listen_fd ready then begin
      match Unix.accept t.listen_fd with
      | fd, _ -> t.clients <- fd :: t.clients
      | exception Unix.Unix_error _ -> ()
    end;
    List.iter
      (fun fd -> if List.mem fd ready then on_client_event t fd)
      t.clients;
    (* worker replies, hard deadlines, then the queue into free slots *)
    Supervisor.handle t.sup ready (on_done t)
  done;
  cfg.log "drained; exiting";
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.clients;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  remove_socket_file ()
