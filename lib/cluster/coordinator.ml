(** The cluster coordinator: shard a triage corpus across N node
    daemons, survive any of them dying, and emit bytes identical to a
    single-node [res triage].

    {b Routing} is deterministic hash-sharding: a unit's workload
    signature (the WER key — crash family + stack, the same key the
    node-side circuit breakers use) is FNV-1a-hashed onto a primary
    node, so every dump from one buggy deployment lands on one node and
    trips {e that} node's breaker, not every breaker in the fleet.
    Failover walks [(primary + k) mod n] over live nodes with window
    room, so even rescheduled units route deterministically.

    {b Fault handling}: every exchange is bounded (connect deadline,
    per-unit wall deadline); a node that refuses, stalls, hangs up, or
    answers garbage is charged a failure in the {!Registry} (capped
    exponential backoff, then declared dead) and the unit is retried —
    on another node if one is available — up to [unit_attempts] times.
    Only when every attempt on every live node is exhausted does the
    unit degrade to the same [worker-lost] row single-node batch triage
    emits for a dump whose workers kept dying.

    {b One durable record per unit}: the result cache.  A unit's
    verdict is stored under its content key as soon as it settles, so a
    coordinator SIGKILLed mid-corpus and re-run on the same cache
    directory serves every settled unit (and its duplicates) from the
    cache and dispatches only the rest.  Nodes keep no record of a
    unit: the coordinator owns its retries and its identity.

    {b Everything else is shared}: the coordinator is
    {!Res_parallel.Batch.pipeline} over remote slots of the
    {!Res_parallel.Supervisor}.  The input is a list of [Batch.item]s;
    Batch's key phase dedups byte-identical dumps, so one unit is
    dispatched per content key (its duplicates taking its verdict at
    merge), the result cache is Batch's lookup and settle-time store
    under a tag of the coordinator's own, and rows, clusters and the
    TSV come from Batch's merge — byte-identical merged output is a
    matter of construction, then enforced under kill schedules by the
    cluster-soak campaign.  The
    supervisor owns attempts, backoff gates and deadlines; routing,
    node health and row verification are the slot set's.
    Only where a dump is analyzed differs. *)

module Io = Res_vm.Coredump_io
module P = Res_serve.Protocol
module Batch = Res_parallel.Batch
module Supervisor = Res_parallel.Supervisor
module Client = Res_serve.Client
module Cache = Res_cache.Cache

type config = {
  nodes : Client.addr list;
  window : int;  (** in-flight units per node (match the node's [jobs]) *)
  unit_attempts : int;  (** exchange attempts per unit before worker-lost *)
  node_attempts : int;  (** consecutive failures before a node is dead *)
  connect_timeout : float;
  unit_deadline : float;  (** wall seconds per exchange (accept → row) *)
  deadline_ms : int option;  (** per-unit analysis budget, forwarded *)
  fuel : int option;
  cache_dir : string option;
      (** content-addressed result cache: units whose exact
          (program, dump, {!cache_config}) a node triaged in any earlier
          run, a killed one included, are applied from disk and never
          dispatched *)
  spot_check : int;
      (** 0 disables; [k > 0] re-analyzes roughly 1/k of the returned
          rows locally (deterministic selection by workload signature)
          and compares the verdict fields — the replay oracle that
          catches a node returning {e plausible} but wrong rows.
          Timed-out rows are exempt (their verdict depends on the
          node's wall clock, not the inputs). *)
  log : string -> unit;
}

let default_config =
  {
    nodes = [];
    window = 2;
    unit_attempts = 8;
    node_attempts = 3;
    connect_timeout = 5.0;
    unit_deadline = 60.0;
    deadline_ms = None;
    fuel = None;
    cache_dir = None;
    spot_check = 0;
    log = ignore;
  }

type stats = {
  cs_units : int;  (** corpus items, unloadable ones included *)
  cs_applied : int;  (** rows applied from live node answers *)
  cs_lost : int;  (** units degraded to worker-lost rows *)
  cs_retries : int;  (** re-dispatches after any failed exchange *)
  cs_reschedules : int;  (** re-dispatches that moved to another node *)
  cs_node_failures : int;  (** failed exchanges charged to nodes *)
  cs_nodes_dead : int;
  cs_duplicates : int;
      (** rows served by an identical dump dispatched in the same run *)
  cs_cache_hits : int;  (** units applied from the result cache *)
  cs_queries : int;  (** solver queries of the rows applied from nodes *)
  cs_byzantine : int;
      (** rows rejected by verification or the replay spot check *)
}

type t = {
  rows : Batch.row list;  (** sorted by dump name *)
  clusters : (string * string list) list;
  tsv : string;
  stats : stats;
  node_health : (string * string * int * int) list;
      (** (address, up|backoff|dead, completed, failures) *)
}

let pp_stats ppf s =
  Fmt.pf ppf
    "units=%d applied=%d lost=%d retries=%d reschedules=%d \
     node_failures=%d nodes_dead=%d duplicates=%d cache_hits=%d queries=%d \
     byzantine=%d"
    s.cs_units s.cs_applied s.cs_lost s.cs_retries s.cs_reschedules
    s.cs_node_failures s.cs_nodes_dead s.cs_duplicates s.cs_cache_hits
    s.cs_queries s.cs_byzantine

(** The config part of the coordinator's cache keys: {!Batch.config_key}
    of the default analysis config, which is what [res serve] nodes run,
    with the budgets this coordinator forwards.  The tag keeps verdicts
    computed by nodes out of a local [res triage], which does not trust
    nodes. *)
let cache_config config =
  "coordinate "
  ^ Batch.config_key
      ?budget_wall:
        (Option.map (fun ms -> float_of_int ms /. 1000.) config.deadline_ms)
      ?budget_fuel:config.fuel Res_core.Res.default_config

(** The node among [n_nodes] a dump is routed to first: its WER key
    (crash family + stack), FNV-1a-hashed. *)
let primary_node ~n_nodes dump =
  Io.fnv1a32 (Res_usecases.Triage.wer_key dump) mod n_nodes

(** One open exchange, a remote slot: the connection, which unit it
    carries, and which node answers it. *)
type exchange = { x_fd : Unix.file_descr; x_unit : int; x_node : int }

(** Run the corpus to completion.  Unloadable items are settled
    locally as [dump-error] rows and never dispatched. *)
let run ?(config = default_config) items =
  if config.nodes = [] then invalid_arg "Coordinator.run: empty node list";
  let reg = Registry.create ~attempts:config.node_attempts config.nodes in
  let n_nodes = Registry.count reg in
  let cache = Option.map Cache.openr config.cache_dir in
  let n_applied = ref 0 and n_reschedules = ref 0 in
  let n_node_failures = ref 0 and n_byzantine = ref 0 in
  let n_queries = ref 0 in
  let prog_text = Batch.per_class Res_ir.Prog.to_string in
  let now () = Unix.gettimeofday () in
  let analyze (items : Batch.item array) farm settle =
    let dump u =
      match items.(u).it_dump with Ok d -> d | Error _ -> assert false
    in
    let name u = items.(u).it_name in
    let window_used = Array.make n_nodes 0 in
    let last_node = Array.make (Array.length items) (-1) in
    (* deterministic failover walk from the signature's primary node *)
    let pick_node u =
      let tnow = now () and p = primary_node ~n_nodes (dump u) in
      List.find_opt
        (fun i ->
          Registry.available reg i ~now:tnow && window_used.(i) < config.window)
        (List.init n_nodes (fun k -> (p + k) mod n_nodes))
    in
    let retry ?(after = 0.) u why =
      config.log (Fmt.str "unit %s attempt failed (%s)" (name u) why);
      Supervisor.Retry (why, after)
    in
    (* the node itself misbehaved: registry backoff/death plus unit retry *)
    let node_failed nd u why =
      Registry.mark_failure reg nd ~now:(now ());
      incr n_node_failures;
      config.log
        (Fmt.str "node %s failed (%s)"
           (Client.addr_to_string (Registry.addr reg nd))
           why);
      retry u why
    in
    let start u =
      if Registry.all_dead reg then `Now (Supervisor.Failed "every node is dead")
      else
        match pick_node u with
        | None -> `Busy
        | Some nd -> (
            if last_node.(u) >= 0 && last_node.(u) <> nd then
              incr n_reschedules;
            last_node.(u) <- nd;
            let req =
              P.Triage
                {
                  tg_name = name u;
                  tg_prog = prog_text items.(u).it_prog;
                  tg_dump = Io.to_string (dump u);
                  tg_deadline_ms = config.deadline_ms;
                  tg_fuel = config.fuel;
                }
            in
            let sent =
              Result.bind
                (Client.connect ~timeout:config.connect_timeout
                   (Registry.addr reg nd))
                (fun fd ->
                  Result.map (fun () -> fd) (Client.send fd req)
                  |> Result.map_error (fun e ->
                         Client.close fd;
                         e))
            in
            match sent with
            | Error e -> `Now (node_failed nd u (Client.error_to_string e))
            | Ok fd ->
                window_used.(nd) <- window_used.(nd) + 1;
                `Started { x_fd = fd; x_unit = u; x_node = nd })
    in
    (* --- byzantine verification --------------------------------------- *)
    (* The codec already enforced seal and schema; what is left is whether
       this row is the answer to the unit we actually sent.  [row_verdict]
       checks identity (the row names the unit we sent) and sanity (a
       non-empty verdict, non-negative work counters) on every row; a
       failing row is byzantine.  The replay spot check is
       the oracle for rows that are well-formed but {e wrong} — re-run the
       unit locally (same fuel, the same default analyze config the nodes
       run) and compare the verdict fields.  Timed-out rows are exempt:
       their verdict reflects the node's wall clock, not the inputs. *)
    let spot_check_due u =
      config.spot_check > 0
      && Io.fnv1a32 (Res_usecases.Triage.wer_key (dump u)) mod config.spot_check
         = 0
    in
    let replay_verdict u (v : Cache.row) =
      (* fresh symbol ids, as each node worker starts with *)
      Res_solver.Expr.reset_counter_for_tests ();
      let budget =
        Option.map (fun f -> Res_core.Budget.create ~fuel:f ()) config.fuel
      in
      let local =
        Res_usecases.Triage.triage_one ?budget items.(u).it_prog (dump u)
      in
      (* a local analysis that died is inconclusive, not evidence; the
         comparison covers the fields a TSV row shows *)
      if String.equal local.c_bucket "analysis-error" then Ok ()
      else if { local with c_timeout = v.c_timeout; c_queries = v.c_queries } = v
      then Ok ()
      else
        Error
          (Fmt.str "replay mismatch: node said %s; local replay says %s"
             (Cache.encode_row v) (Cache.encode_row local))
    in
    let row_verdict u ~rw_name ~rw_elapsed_ms (v : Cache.row) =
      if not (String.equal rw_name (name u)) then
        Error (Fmt.str "row names unit %S, we sent %S" rw_name (name u))
      else if String.equal v.c_outcome "" || String.equal v.c_bucket "" then
        Error "empty outcome or bucket"
      else if v.c_nodes < 0 || v.c_pruned < 0 || v.c_queries < 0 || rw_elapsed_ms < 0
      then Error "negative work counters"
      else if (not v.c_timeout) && spot_check_due u then replay_verdict u v
      else Ok ()
    in
    let read x =
      let u = x.x_unit in
      (* the descriptor is readable: a frame should complete promptly; a
         peer that stalls mid-frame is cut off well before the unit
         deadline *)
      match Client.recv_frame ~timeout:5.0 x.x_fd with
      | Error e -> node_failed x.x_node u (Client.error_to_string e)
      | Ok frame -> (
          match P.decode_reply frame with
          | Ok (P.Accepted _) -> Supervisor.Wait
          | Ok (P.Row { rw_verdict = { c_bucket = "worker-lost"; c_cause; _ }; _ })
            ->
              (* the node's supervision gave up on the unit: the node is
                 healthy (it answered), the unit gets retried elsewhere *)
              Registry.mark_success reg x.x_node;
              retry u (Fmt.str "node supervision gave up: %s" c_cause)
          | Ok (P.Row { rw_name; rw_elapsed_ms; rw_verdict }) -> (
              match row_verdict u ~rw_name ~rw_elapsed_ms rw_verdict with
              | Error why ->
                  (* a lying node is indistinguishable from a corrupt one:
                     charge it like any misbehaving peer (backoff, then the
                     Registry's Dead quarantine) and reschedule the unit *)
                  incr n_byzantine;
                  node_failed x.x_node u
                    (Fmt.str "byzantine row rejected: %s" why)
              | Ok () ->
                  Registry.mark_success reg x.x_node;
                  Supervisor.Done rw_verdict)
          | Ok (P.Rejected_overload _) ->
              (* backpressure, not failure: back off without charging the
                 node *)
              retry u "node overloaded"
          | Ok (P.Rejected_breaker { rb_retry_ms; _ }) ->
              retry ~after:(float_of_int rb_retry_ms /. 1000.) u "breaker open"
          | Ok P.Rejected_draining ->
              (* the node is shutting down: treat as node loss so routing
                 moves on *)
              node_failed x.x_node u "node draining"
          | Ok (P.Err m) -> retry u (Fmt.str "node error: %s" m)
          | Ok _ -> node_failed x.x_node u "unexpected reply"
          | Error m ->
              node_failed x.x_node u (Fmt.str "undecodable reply: %s" m))
    in
    let close x =
      (try Unix.close x.x_fd with Unix.Unix_error _ -> ());
      window_used.(x.x_node) <- window_used.(x.x_node) - 1
    in
    let sup =
      Supervisor.create ~attempts:config.unit_attempts
        ~deadline:(fun _ -> Some config.unit_deadline)
        ~on_deadline:(fun u x ->
          node_failed x.x_node u
            (Fmt.str "unit deadline exceeded (%.1fs)" config.unit_deadline))
        {
          start;
          fd = (fun x -> x.x_fd);
          read;
          release = (fun x _ -> close x);
          kill = close;
          tick = (fun () -> Registry.next_gate reg);
          close = ignore;
        }
    in
    List.iter (Supervisor.add sup) farm;
    Supervisor.run sup (fun u -> function
      | Error why -> config.log (Fmt.str "unit %s lost: %s" (name u) why)
      | Ok v ->
          settle u v;
          incr n_applied;
          n_queries := !n_queries + v.c_queries);
    (sup.retries, sup.lost)
  in
  let (retries, lost), rows, clusters, tsv, cache_hits, duplicates =
    Batch.pipeline ?cache ~config:(cache_config config) items analyze
  in
  if cache_hits > 0 then
    config.log (Fmt.str "%d unit(s) applied from cache" cache_hits);
  {
    rows;
    clusters;
    tsv;
    stats =
      {
        cs_units = List.length items;
        cs_applied = !n_applied;
        cs_lost = lost;
        cs_retries = retries;
        cs_reschedules = !n_reschedules;
        cs_node_failures = !n_node_failures;
        cs_nodes_dead = Registry.dead_count reg;
        cs_duplicates = duplicates;
        cs_cache_hits = cache_hits;
        cs_queries = !n_queries;
        cs_byzantine = !n_byzantine;
      };
    node_health = Registry.report reg;
  }
