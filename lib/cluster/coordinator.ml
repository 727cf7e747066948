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

    {b At-most-once application}: a unit's row is applied once, keyed by
    unit identity (corpus name).  The row is journaled ({!Journal})
    {e before} it is applied in memory, so a coordinator SIGKILLed
    mid-corpus resumes from its journal without re-running or
    double-applying units; late duplicate rows (a retried unit whose
    first node answered after all) are counted and dropped.

    {b Everything else is {!Res_parallel.Batch}}: the input is a list of
    [Batch.item]s, the result cache is Batch's lookup and store phases
    under a tag of the coordinator's own, and rows, clusters and the TSV
    come from Batch's merge — byte-identical merged output is a matter
    of construction, then enforced under kill schedules by the
    cluster-soak campaign.  Only where a dump is analyzed differs. *)

module Io = Res_vm.Coredump_io
module P = Res_serve.Protocol
module Batch = Res_parallel.Batch
module Pool = Res_parallel.Pool
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
  journal_dir : string option;  (** durable at-most-once journal *)
  cache_dir : string option;
      (** content-addressed result cache: units whose exact
          (program, dump, {!cache_config}) a node triaged in any earlier
          run are applied from disk and never dispatched *)
  verify_rows : bool;
      (** structural verification of every node-returned row: the seal
          and schema were already checked by the codec; this adds
          identity (row names the unit we sent) and sanity (non-empty
          verdict, non-negative work counters).  A failing row is
          byzantine: the node is charged as failed and the unit
          rescheduled. *)
  spot_check : int;
      (** 0 disables; [k > 0] re-analyzes roughly 1/k of the returned
          rows locally (deterministic selection by workload signature)
          and compares the verdict fields — the replay oracle that
          catches a node returning {e plausible} but wrong rows.
          Timed-out rows are exempt (their verdict depends on the
          node's wall clock, not the inputs). *)
  log : string -> unit;
}

(** Capped exponential backoff, for both a failing node and a requeued
    unit: [backoff_base * 2^failures] seconds, at most [backoff_cap]. *)
let backoff_base = 0.01

let backoff_cap = 0.25

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
    journal_dir = None;
    cache_dir = None;
    verify_rows = true;
    spot_check = 0;
    log = ignore;
  }

type stats = {
  cs_units : int;  (** corpus items, unloadable ones included *)
  cs_applied : int;  (** rows applied from live node answers *)
  cs_recovered : int;  (** rows recovered from the journal at boot *)
  cs_lost : int;  (** units degraded to worker-lost rows *)
  cs_retries : int;  (** re-dispatches after any failed exchange *)
  cs_reschedules : int;  (** re-dispatches that moved to another node *)
  cs_node_failures : int;  (** failed exchanges charged to nodes *)
  cs_nodes_dead : int;
  cs_duplicates : int;  (** late rows dropped by at-most-once *)
  cs_cache_hits : int;  (** units applied from the result cache *)
  cs_queries : int;  (** solver queries reported by applied rows *)
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
    "units=%d applied=%d recovered=%d lost=%d retries=%d reschedules=%d \
     node_failures=%d nodes_dead=%d duplicates=%d cache_hits=%d queries=%d \
     byzantine=%d"
    s.cs_units s.cs_applied s.cs_recovered s.cs_lost s.cs_retries
    s.cs_reschedules s.cs_node_failures s.cs_nodes_dead s.cs_duplicates
    s.cs_cache_hits s.cs_queries s.cs_byzantine

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

(** The verdict a [Row] reply frame carries. *)
let verdict_of_frame frame =
  match P.decode_reply frame with
  | Ok (P.Row { rw_verdict; _ }) -> Some rw_verdict
  | _ -> None

(** One open exchange: the connection, which unit it carries, which node
    answers it, and when the coordinator stops waiting. *)
type inflight = {
  if_fd : Unix.file_descr;
  if_unit : int;
  if_node : int;
  if_deadline : float;
  mutable if_accepted : bool;
}

(** Run the corpus to completion.  Unloadable items are settled
    locally as [dump-error] rows and never dispatched. *)
let run ?(config = default_config) items =
  if config.nodes = [] then invalid_arg "Coordinator.run: empty node list";
  let items =
    List.sort (fun (a : Batch.item) b -> compare a.it_name b.it_name) items
    |> Array.of_list
  in
  let n = Array.length items in
  let dump u =
    match items.(u).it_dump with Ok d -> d | Error _ -> assert false
  in
  let prog_text = Batch.per_prog Res_ir.Prog.to_string in
  let reg =
    Registry.create ~attempts:config.node_attempts
      ~backoff_base ~backoff_cap config.nodes
  in
  let n_nodes = Registry.count reg in
  let journal = Option.map Journal.openr config.journal_dir in
  let cache = Option.map Cache.openr config.cache_dir in
  let keys, cached =
    Batch.lookup ?cache ~config:(cache_config config) items
  in
  let verdicts = Array.make n None in
  let lost = Array.make n false in
  let attempts = Array.make n 0 in
  let last_node = Array.make n (-1) in
  let gate = Array.make n 0. in
  let window_used = Array.make n_nodes 0 in
  let pending = Queue.create () in
  let inflight = ref [] in
  let n_applied = ref 0 in
  let n_recovered = ref 0 in
  let n_lost = ref 0 in
  let n_retries = ref 0 in
  let n_reschedules = ref 0 in
  let n_node_failures = ref 0 in
  let n_duplicates = ref 0 in
  let n_cache_hits = ref 0 in
  let n_byzantine = ref 0 in
  (* boot: replay the journal — rows applied by any prior incarnation
     are final *)
  (match journal with
  | None -> ()
  | Some j ->
      let by_name = Hashtbl.create 32 in
      List.iter
        (fun (name, frame) -> Hashtbl.replace by_name name frame)
        (Journal.recovered_rows j);
      Array.iteri
        (fun i (it : Batch.item) ->
          if Result.is_ok it.it_dump then
            match
              Option.bind (Hashtbl.find_opt by_name it.it_name) verdict_of_frame
            with
            | Some v ->
                verdicts.(i) <- Some v;
                incr n_recovered
            | None -> ())
        items;
      if !n_recovered > 0 then
        config.log
          (Fmt.str "recovered %d applied row(s) from journal" !n_recovered));
  (* warm start: units the cache already answers never touch the network *)
  Array.iteri
    (fun i c ->
      if verdicts.(i) = None && c <> None then begin
        verdicts.(i) <- c;
        incr n_cache_hits
      end)
    cached;
  if !n_cache_hits > 0 then
    config.log (Fmt.str "%d unit(s) applied from cache" !n_cache_hits);
  Array.iteri
    (fun i (it : Batch.item) ->
      if Result.is_ok it.it_dump && verdicts.(i) = None then
        Queue.push i pending)
    items;
  let remaining = ref (Queue.length pending) in
  let now () = Unix.gettimeofday () in
  let primaries =
    Array.map
      (fun (it : Batch.item) ->
        match it.it_dump with
        | Ok d -> primary_node ~n_nodes d
        | Error _ -> 0)
      items
  in
  (* deterministic failover walk from the signature's primary node *)
  let pick_node u tnow =
    let p = primaries.(u) in
    let rec go k =
      if k >= n_nodes then None
      else
        let i = (p + k) mod n_nodes in
        if Registry.available reg i ~now:tnow && window_used.(i) < config.window
        then Some i
        else go (k + 1)
    in
    go 0
  in
  let mark_lost u why =
    if not lost.(u) then begin
      lost.(u) <- true;
      incr n_lost;
      decr remaining;
      config.log (Fmt.str "unit %s lost: %s" items.(u).it_name why)
    end
  in
  let apply u frame v =
    match verdicts.(u) with
    | Some _ -> incr n_duplicates
    | None ->
        (* journal before applying: a kill between the two re-reads the
           row instead of re-running the unit *)
        Option.iter (fun j -> Journal.append j ~index:u ~frame) journal;
        verdicts.(u) <- Some v;
        incr n_applied;
        decr remaining
  in
  (* a failed exchange: charge the unit an attempt and requeue (or give
     up), gated by capped exponential backoff *)
  let unit_failed u why =
    attempts.(u) <- attempts.(u) + 1;
    if attempts.(u) >= config.unit_attempts then
      mark_lost u (Fmt.str "%d attempts exhausted (last: %s)" attempts.(u) why)
    else begin
      incr n_retries;
      gate.(u) <-
        now ()
        +. Pool.backoff_delay ~base:backoff_base ~cap:backoff_cap
             (attempts.(u) - 1);
      Queue.push u pending;
      config.log
        (Fmt.str "unit %s attempt %d failed (%s); requeued" items.(u).it_name
           attempts.(u) why)
    end
  in
  let retire f =
    (try Unix.close f.if_fd with Unix.Unix_error _ -> ());
    window_used.(f.if_node) <- window_used.(f.if_node) - 1;
    inflight := List.filter (fun g -> g != f) !inflight
  in
  (* the node itself misbehaved: registry backoff/death plus unit retry *)
  let exchange_failed f why =
    retire f;
    Registry.mark_failure reg f.if_node ~now:(now ());
    incr n_node_failures;
    config.log
      (Fmt.str "node %s failed (%s)"
         (Client.addr_to_string (Registry.addr reg f.if_node))
         why);
    unit_failed f.if_unit why
  in
  let dispatch_one u tnow =
    if verdicts.(u) <> None || lost.(u) then ()
    else if Registry.all_dead reg then
      mark_lost u "every node is dead"
    else if gate.(u) > tnow then Queue.push u pending
    else
      match pick_node u tnow with
      | None -> Queue.push u pending
      | Some nd -> (
          if last_node.(u) >= 0 && last_node.(u) <> nd then
            incr n_reschedules;
          last_node.(u) <- nd;
          let addr = Registry.addr reg nd in
          match Client.connect ~timeout:config.connect_timeout addr with
          | Error e ->
              Registry.mark_failure reg nd ~now:tnow;
              incr n_node_failures;
              unit_failed u (Client.error_to_string e)
          | Ok fd -> (
              let it = items.(u) in
              let req =
                P.Triage
                  {
                    tg_name = it.it_name;
                    tg_prog = prog_text it.it_prog;
                    tg_dump = Io.to_string (dump u);
                    tg_deadline_ms = config.deadline_ms;
                    tg_fuel = config.fuel;
                  }
              in
              match Client.send fd req with
              | Error e ->
                  Client.close fd;
                  Registry.mark_failure reg nd ~now:tnow;
                  incr n_node_failures;
                  unit_failed u (Client.error_to_string e)
              | Ok () ->
                  window_used.(nd) <- window_used.(nd) + 1;
                  inflight :=
                    {
                      if_fd = fd;
                      if_unit = u;
                      if_node = nd;
                      if_deadline = tnow +. config.unit_deadline;
                      if_accepted = false;
                    }
                    :: !inflight))
  in
  (* --- byzantine verification ----------------------------------------- *)
  (* The codec already enforced seal and schema; what is left is whether
     this row is the answer to the unit we actually sent.  [row_verdict]
     checks identity and sanity on every row; the replay spot check is
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
    if not config.verify_rows then Ok ()
    else if not (String.equal rw_name items.(u).it_name) then
      Error (Fmt.str "row names unit %S, we sent %S" rw_name items.(u).it_name)
    else if String.equal v.c_outcome "" || String.equal v.c_bucket "" then
      Error "empty outcome or bucket"
    else if v.c_nodes < 0 || v.c_pruned < 0 || v.c_queries < 0 || rw_elapsed_ms < 0
    then Error "negative work counters"
    else if (not v.c_timeout) && spot_check_due u then replay_verdict u v
    else Ok ()
  in
  let on_reply f =
    (* the descriptor is readable: a frame should complete promptly; a
       peer that stalls mid-frame is cut off well before the unit
       deadline *)
    match Client.recv_frame ~timeout:5.0 f.if_fd with
    | Error e -> exchange_failed f (Client.error_to_string e)
    | Ok frame -> (
        match P.decode_reply frame with
        | Ok (P.Accepted _) -> f.if_accepted <- true
        | Ok (P.Row { rw_verdict = { c_bucket = "worker-lost"; c_cause; _ }; _ })
          ->
            (* the node's supervision gave up on the unit: the node is
               healthy (it answered), the unit gets retried elsewhere *)
            retire f;
            Registry.mark_success reg f.if_node;
            unit_failed f.if_unit
              (Fmt.str "node supervision gave up: %s" c_cause)
        | Ok (P.Row { rw_name; rw_elapsed_ms; rw_verdict }) -> (
            match row_verdict f.if_unit ~rw_name ~rw_elapsed_ms rw_verdict with
            | Error why ->
                (* a lying node is indistinguishable from a corrupt one:
                   charge it like any misbehaving peer (backoff, then the
                   Registry's Dead quarantine) and reschedule the unit *)
                incr n_byzantine;
                exchange_failed f (Fmt.str "byzantine row rejected: %s" why)
            | Ok () ->
                retire f;
                Registry.mark_success reg f.if_node;
                apply f.if_unit frame rw_verdict)
        | Ok (P.Rejected_overload _) ->
            (* backpressure, not failure: back off without charging the
               node *)
            retire f;
            unit_failed f.if_unit "node overloaded"
        | Ok (P.Rejected_breaker { rb_retry_ms; _ }) ->
            retire f;
            let u = f.if_unit in
            unit_failed u "breaker open";
            gate.(u) <-
              Float.max gate.(u)
                (now () +. (float_of_int rb_retry_ms /. 1000.))
        | Ok (P.Rejected_draining) ->
            (* the node is shutting down: treat as node loss so routing
               moves on *)
            exchange_failed f "node draining"
        | Ok (P.Err m) ->
            retire f;
            unit_failed f.if_unit (Fmt.str "node error: %s" m)
        | Ok _ -> exchange_failed f "unexpected reply"
        | Error m -> exchange_failed f (Fmt.str "undecodable reply: %s" m))
  in
  let sweep_deadlines tnow =
    List.iter
      (fun f ->
        if tnow > f.if_deadline then
          exchange_failed f
            (Fmt.str "unit deadline exceeded (%.1fs)" config.unit_deadline))
      !inflight
  in
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Unix.close f.if_fd with Unix.Unix_error _ -> ())
        !inflight;
      Sys.set_signal Sys.sigpipe prev_sigpipe)
    (fun () ->
      while !remaining > 0 do
        let tnow = now () in
        let budget = Queue.length pending in
        for _ = 1 to budget do
          if not (Queue.is_empty pending) then
            dispatch_one (Queue.pop pending) tnow
        done;
        if !remaining > 0 then begin
          let tnow = now () in
          (* wake for the earliest timer: an exchange deadline, a unit's
             backoff gate, or a node's backoff gate *)
          let earliest =
            let e =
              List.fold_left
                (fun acc f -> min acc f.if_deadline)
                (tnow +. 0.1) !inflight
            in
            let e =
              Queue.fold
                (fun acc u -> if gate.(u) > tnow then min acc gate.(u) else acc)
                e pending
            in
            match Registry.next_gate reg with Some g -> min e g | None -> e
          in
          let timeout = Float.max 0.005 (earliest -. tnow) in
          let fds = List.map (fun f -> f.if_fd) !inflight in
          let ready, _, _ =
            try Unix.select fds [] [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          List.iter
            (fun f -> if List.mem f.if_fd ready then on_reply f)
            !inflight;
          sweep_deadlines (now ())
        end
      done);
  Batch.store ?cache keys ~cached verdicts;
  let rows, clusters, tsv = Batch.merge items verdicts in
  let queries =
    Array.fold_left
      (fun acc -> function Some (v : Cache.row) -> acc + v.c_queries | None -> acc)
      0 verdicts
  in
  {
    rows;
    clusters;
    tsv;
    stats =
      {
        cs_units = n;
        cs_applied = !n_applied;
        cs_recovered = !n_recovered;
        cs_lost = !n_lost;
        cs_retries = !n_retries;
        cs_reschedules = !n_reschedules;
        cs_node_failures = !n_node_failures;
        cs_nodes_dead = Registry.dead_count reg;
        cs_duplicates = !n_duplicates;
        cs_cache_hits = !n_cache_hits;
        cs_queries = queries;
        cs_byzantine = !n_byzantine;
      };
    node_health = Registry.report reg;
  }
