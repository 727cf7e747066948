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

    The output path reuses {!Res_parallel.Batch} rows, clustering, and
    TSV rendering verbatim — byte-identical merged output is a matter of
    construction, then enforced under kill schedules by the cluster-soak
    campaign. *)

module Io = Res_vm.Coredump_io
module P = Res_serve.Protocol
module Batch = Res_parallel.Batch
module Pool = Res_parallel.Pool
module Client = Res_serve.Client

(** One triage unit: the corpus name (unit identity), raw program and
    dump texts, and the workload signature that routes it. *)
type unit_item = {
  ci_name : string;
  ci_prog : string;
  ci_dump : string;
  ci_sig : string;
}

type config = {
  nodes : Client.addr list;
  window : int;  (** in-flight units per node (match the node's [jobs]) *)
  unit_attempts : int;  (** exchange attempts per unit before worker-lost *)
  node_attempts : int;  (** consecutive failures before a node is dead *)
  connect_timeout : float;
  unit_deadline : float;  (** wall seconds per exchange (accept → row) *)
  deadline_ms : int option;  (** per-unit analysis budget, forwarded *)
  fuel : int option;
  backoff_base : float;
  backoff_cap : float;
  journal_dir : string option;  (** durable at-most-once journal *)
  cache_dir : string option;
      (** content-addressed result cache: units whose exact
          (program, dump, budgets) were triaged by any earlier run are
          applied from disk and never dispatched to a node *)
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
    backoff_base = 0.01;
    backoff_cap = 0.25;
    journal_dir = None;
    cache_dir = None;
    verify_rows = true;
    spot_check = 0;
    log = ignore;
  }

type stats = {
  cs_units : int;
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

(** Decode a [Row] reply frame into a renderable batch row and the
    solver queries it reports. *)
let row_of_frame frame =
  match P.decode_reply frame with
  | Ok (P.Row { rw_name; rw_verdict = v; _ }) ->
      Some (Batch.row_of_verdict rw_name v, v.c_queries)
  | _ -> None

(* Frames stored in the result cache are identity-normalized: the unit
   name and elapsed time are per-run noise, not part of the verdict.
   Timed-out and worker-lost rows are what a {e run} managed, not what
   the inputs mean, so they are neither stored nor served. *)
let cacheable (v : Res_cache.Cache.row) =
  (not v.c_timeout) && not (String.equal v.c_bucket "worker-lost")

let normalize_frame frame =
  match P.decode_reply frame with
  | Ok (P.Row r) when cacheable r.rw_verdict ->
      Some
        (P.encode_reply (P.Row { r with rw_name = "cached"; rw_elapsed_ms = 0 }))
  | _ -> None

(** Re-label a cached (normalized) frame with this unit's corpus name so
    the row merges into the output like a node answer. *)
let relabel_frame name body =
  match P.decode_reply body with
  | Ok (P.Row r) when cacheable r.rw_verdict ->
      Some (P.encode_reply (P.Row { r with rw_name = name }))
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

(** Run the corpus to completion.  [extra_rows] are rows the caller
    settled locally (unloadable dumps) that only participate in the
    final merge — exactly as unloadable items do in {!Batch.run}. *)
let run ?(config = default_config) ?(extra_rows = []) items =
  if config.nodes = [] then invalid_arg "Coordinator.run: empty node list";
  let items =
    List.sort (fun a b -> compare a.ci_name b.ci_name) items |> Array.of_list
  in
  let n = Array.length items in
  let reg =
    Registry.create ~attempts:config.node_attempts
      ~backoff_base:config.backoff_base ~backoff_cap:config.backoff_cap
      config.nodes
  in
  let n_nodes = Registry.count reg in
  let journal = Option.map Journal.openr config.journal_dir in
  let cache = Option.map Res_cache.Cache.openr config.cache_dir in
  (* Cache keys are content keys over the raw unit bytes plus the
     budgets this coordinator forwards; the reply codec version makes a
     protocol bump an honest miss.  The unit {e name} is deliberately
     not in the key — identical (program, dump) bytes mean an identical
     verdict, whatever the corpus calls the file. *)
  let cache_cfg =
    Res_cache.Cache.row_config
      ~wall:(Option.map (fun ms -> float_of_int ms /. 1000.) config.deadline_ms)
      ~fuel:config.fuel
      ~engine:(Fmt.str "coord %s" P.rep_header)
  in
  let keys =
    Array.map
      (fun it ->
        match cache with
        | None -> ""
        | Some _ ->
            Res_cache.Cache.key ~prog:it.ci_prog ~dump:it.ci_dump
              ~config:cache_cfg)
      items
  in
  let applied = Array.make n None in
  let lost = Array.make n false in
  let attempts = Array.make n 0 in
  let last_node = Array.make n (-1) in
  let gate = Array.make n 0. in
  let window_used = Array.make n_nodes 0 in
  let pending = Queue.create () in
  let inflight = ref [] in
  let remaining = ref n in
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
        (fun i it ->
          match Hashtbl.find_opt by_name it.ci_name with
          | Some frame -> (
              match row_of_frame frame with
              | Some payload ->
                  applied.(i) <- Some payload;
                  incr n_recovered;
                  decr remaining
              | None -> ())
          | None -> ())
        items;
      if !n_recovered > 0 then
        config.log
          (Fmt.str "recovered %d applied row(s) from journal" !n_recovered));
  (* warm start: units the cache already answers never touch the network.
     Hits are journaled like node answers, so a coordinator killed during
     a warm run recovers them as applied rows. *)
  (match cache with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun i it ->
          if applied.(i) = None then
            match Res_cache.Cache.find c keys.(i) with
            | None -> ()
            | Some body -> (
                match relabel_frame it.ci_name body with
                | None -> ()
                | Some frame -> (
                    match row_of_frame frame with
                    | None -> ()
                    | Some payload ->
                        Option.iter
                          (fun j -> Journal.append j ~index:i ~frame)
                          journal;
                        applied.(i) <- Some payload;
                        incr n_cache_hits;
                        decr remaining)))
        items;
      if !n_cache_hits > 0 then
        config.log (Fmt.str "%d unit(s) applied from cache" !n_cache_hits));
  Array.iteri (fun i _ -> if applied.(i) = None then Queue.push i pending) items;
  let now () = Unix.gettimeofday () in
  let route i = Io.fnv1a32 items.(i).ci_sig mod n_nodes in
  (* deterministic failover walk from the signature's primary node *)
  let pick_node u tnow =
    let p = route u in
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
      config.log (Fmt.str "unit %s lost: %s" items.(u).ci_name why)
    end
  in
  let apply u frame =
    match applied.(u) with
    | Some _ -> incr n_duplicates
    | None -> (
        match row_of_frame frame with
        | None -> incr n_duplicates  (* unreachable: caller decoded *)
        | Some payload ->
            (* journal before applying: a kill between the two re-reads
               the row instead of re-running the unit *)
            Option.iter (fun j -> Journal.append j ~index:u ~frame) journal;
            (match cache with
            | Some c when not (String.equal keys.(u) "") -> (
                match normalize_frame frame with
                | Some body -> Res_cache.Cache.store c keys.(u) body
                | None -> ())
            | _ -> ());
            applied.(u) <- Some payload;
            incr n_applied;
            decr remaining)
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
        +. Pool.backoff_delay ~base:config.backoff_base ~cap:config.backoff_cap
             (attempts.(u) - 1);
      Queue.push u pending;
      config.log
        (Fmt.str "unit %s attempt %d failed (%s); requeued" items.(u).ci_name
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
    if applied.(u) <> None || lost.(u) then ()
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
                    tg_name = it.ci_name;
                    tg_prog = it.ci_prog;
                    tg_dump = it.ci_dump;
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
    && Io.fnv1a32 items.(u).ci_sig mod config.spot_check = 0
  in
  let replay_verdict u (v : Res_cache.Cache.row) =
    let it = items.(u) in
    match Res_ir.Parser.parse_result it.ci_prog with
    | Error _ -> Ok () (* cannot replay locally: inconclusive, accept *)
    | Ok prog -> (
        match Io.of_string_result it.ci_dump with
        | Error _ -> Ok ()
        | Ok { Io.dump; _ } ->
            (* fresh symbol ids, as each node worker starts with *)
            Res_solver.Expr.reset_counter_for_tests ();
            let budget =
              Option.map (fun f -> Res_core.Budget.create ~fuel:f ()) config.fuel
            in
            let local = Res_usecases.Triage.triage_one ?budget prog dump in
            (* a local analysis that died is inconclusive, not evidence;
               the comparison covers the fields a TSV row shows *)
            if String.equal local.c_bucket "analysis-error" then Ok ()
            else if
              { local with c_timeout = v.c_timeout; c_queries = v.c_queries }
              = v
            then Ok ()
            else
              Error
                (Fmt.str "replay mismatch: node said %s; local replay says %s"
                   (Res_cache.Cache.encode_row v)
                   (Res_cache.Cache.encode_row local)))
  in
  let row_verdict u ~rw_name ~rw_elapsed_ms (v : Res_cache.Cache.row) =
    if not config.verify_rows then Ok ()
    else if not (String.equal rw_name items.(u).ci_name) then
      Error (Fmt.str "row names unit %S, we sent %S" rw_name items.(u).ci_name)
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
                apply f.if_unit frame)
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
  let unit_rows =
    List.init n (fun i ->
        match applied.(i) with
        | Some (row, _) -> row
        | None ->
            Batch.row_of_verdict items.(i).ci_name
              (Res_cache.Cache.failed_row ~bucket:"worker-lost" ~cause:""))
  in
  let rows =
    List.sort
      (fun (a : Batch.row) b -> compare a.Batch.row_name b.Batch.row_name)
      (unit_rows @ extra_rows)
  in
  let clusters =
    Res_usecases.Triage.bucket ~key:(fun r -> r.Batch.row_bucket) rows
    |> List.map (fun (k, rs) ->
           (k, List.map (fun r -> r.Batch.row_name) rs))
  in
  let queries =
    Array.fold_left
      (fun acc -> function Some (_, q) -> acc + q | None -> acc)
      0 applied
  in
  {
    rows;
    clusters;
    tsv = Batch.render rows clusters;
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

(** Every unit degraded to a failed row — the all-nodes-down shape an
    orchestrator gates on, mirroring {!Batch.all_failed}. *)
let all_failed t =
  t.rows <> []
  && List.for_all (fun r -> String.equal r.Batch.row_outcome "failed") t.rows
