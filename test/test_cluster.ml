(* The triage cluster: the daemon client's address parsing, typed
   wire-frame damage over a real socketpair (torn headers, torn payloads,
   torn seals, oversized announcements, stalls — every one a classified
   error, never a hang), connect and receive deadlines under a watchdog,
   node-health registry transitions, and a forked two-node end-to-end
   run whose merged TSV must be byte-identical to single-node batch
   triage — with and without a dead node in the fleet, and with the
   coordinator killed mid-corpus and resumed from its result cache —
   plus the parts the coordinator shares with batch triage: dump-error
   rows and the result cache.  Nodes, their spools and every cache live
   in a fleet kit's scratch directory, removed when each test ends.

   The end-to-end tests fork node daemons; like test_parallel and
   test_serve, no domains are spawned in this binary, so fork is always
   legal. *)

module Wire = Res_parallel.Wire
module Pool = Res_parallel.Pool
module Batch = Res_parallel.Batch
module P = Res_serve.Protocol
module Server = Res_serve.Server
module Io = Res_vm.Coredump_io
module Client = Res_serve.Client
module Registry = Res_cluster.Registry
module C = Res_cluster.Coordinator
module Cache = Res_cache.Cache
module Spool = Res_serve.Spool
module Fleet = Res_faultinject.Fleet

(* --- addresses ------------------------------------------------------- *)

let test_parse_addr () =
  let parses s expect =
    match Client.parse_addr s with
    | Ok a when a = expect -> ()
    | Ok a -> Alcotest.failf "%S parsed as %a" s Client.pp_addr a
    | Error e -> Alcotest.fail e
  in
  parses "127.0.0.1:9000" (Client.Tcp ("127.0.0.1", 9000));
  parses "triage-3.internal:65535" (Client.Tcp ("triage-3.internal", 65535));
  (* port 0 is for listeners: bind an ephemeral port *)
  parses "127.0.0.1:0" (Client.Tcp ("127.0.0.1", 0));
  (* anything else is a Unix socket path, and a '/' always is *)
  List.iter
    (fun path -> parses path (Client.Unix_socket path))
    [ "res-serve.sock"; "localhost"; "host:"; "host:port"; "/tmp/a:9000" ];
  List.iter
    (fun bad ->
      match Client.parse_addr bad with
      | Ok _ -> Alcotest.fail (Fmt.str "%S must not parse" bad)
      | Error _ -> ())
    [ ":9000"; "host:65536"; "host:99999999999999999999" ]

(* --- wire-frame damage over a real socketpair ------------------------ *)

(* Each scenario writes a damaged byte stream into one end of a
   socketpair and asserts the reader classifies it without hanging. *)
let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let fail_on s = Alcotest.fail (Fmt.str "classified wrongly: %s" s)

let test_damage_eof_at_boundary () =
  with_socketpair (fun w r ->
      Unix.close w;
      (match Wire.read_frame_result r with
      | Error Wire.Frame_eof -> ()
      | _ -> fail_on "EOF at a frame boundary must be Frame_eof");
      match Client.recv ~timeout:1.0 r with
      | Error Client.Closed -> ()
      | _ -> fail_on "client EOF at a boundary must be Closed")

let test_damage_torn_header () =
  with_socketpair (fun w r ->
      write_all w "00000";
      Unix.close w;
      match Wire.read_frame_result r with
      | Error (Wire.Frame_torn m) ->
          Alcotest.(check bool) "carries a diagnostic" true
            (String.length m > 0)
      | _ -> fail_on "truncation mid-length-prefix must be Frame_torn")

let test_damage_torn_header_transport () =
  with_socketpair (fun w r ->
      write_all w "00000";
      Unix.close w;
      match Client.recv ~timeout:1.0 r with
      | Error (Client.Damaged _) -> ()
      | _ -> fail_on "client truncation mid-header must be Damaged")

let test_damage_torn_body () =
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" 100);
      write_all w "only ten b";
      Unix.close w;
      (match Wire.read_frame_result r with
      | Error (Wire.Frame_torn _) -> ()
      | _ -> fail_on "truncation mid-payload must be Frame_torn"));
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" 100);
      write_all w "only ten b";
      Unix.close w;
      match Client.recv ~timeout:1.0 r with
      | Error (Client.Damaged _) -> ()
      | _ -> fail_on "client truncation mid-payload must be Damaged")

let test_damage_corrupt_prefix () =
  with_socketpair (fun w r ->
      write_all w "tenletters";
      (* a full, corrupt header: the length prefix is not a number *)
      Unix.close w;
      match Wire.read_frame_result r with
      | Error (Wire.Frame_torn _) -> ()
      | _ -> fail_on "a non-numeric length prefix must be Frame_torn")

let test_damage_oversized_prefix () =
  (* an oversized announcement is rejected before any allocation: the
     reader never tries to make a buffer of this size *)
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" (Wire.max_frame_bytes + 1));
      (match Wire.read_frame_result r with
      | Error (Wire.Frame_oversized n) ->
          Alcotest.(check int) "reports the announced size"
            (Wire.max_frame_bytes + 1) n
      | _ -> fail_on "an oversized length prefix must be Frame_oversized"));
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" (Wire.max_frame_bytes + 1));
      match Client.recv ~timeout:1.0 r with
      | Error (Client.Damaged _) -> ()
      | _ -> fail_on "client oversized prefix must be Damaged")

let test_damage_stall_is_timeout () =
  (* a peer that goes silent mid-frame must surface as a deadline, not a
     hang: the whole point of the deadline-guarded reader *)
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" 100);
      write_all w "half";
      let t0 = Unix.gettimeofday () in
      match Client.recv ~timeout:0.2 r with
      | Error (Client.Timeout _) ->
          Alcotest.(check bool) "returned promptly" true
            (Unix.gettimeofday () -. t0 < 2.0)
      | _ -> fail_on "a mid-frame stall must be Timeout")

let test_damage_torn_seal () =
  (* the frame layer delivers an intact frame whose sealed payload was
     truncated mid-seal: the codec, not the frame layer, must reject it *)
  let reply =
    P.encode_reply
      (P.Err "a reply body long enough to truncate meaningfully")
  in
  let torn = String.sub reply 0 (String.length reply - 7) in
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" (String.length torn));
      write_all w torn;
      Unix.close w;
      (match Client.recv_frame ~timeout:1.0 r with
      | Ok frame -> (
          match P.decode_reply frame with
          | Error _ -> ()
          | Ok _ -> fail_on "a torn seal must not decode")
      | Error e -> fail_on (Client.error_to_string e)));
  (* [recv] decodes: the same frame is a Damaged reply *)
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" (String.length torn));
      write_all w torn;
      Unix.close w;
      match Client.recv ~timeout:1.0 r with
      | Error (Client.Damaged _) -> ()
      | _ -> fail_on "a torn seal must be a Damaged reply")

(* --- deadlines under a watchdog -------------------------------------- *)

(* Run [f] in a forked child and fail unless it returns [true] within
   [limit] seconds.  A child still blocked at the limit is SIGKILLed, so
   a call that ignores its deadline fails the test instead of hanging
   the suite. *)
let within ~limit what f =
  match Unix.fork () with
  | 0 -> Unix._exit (match f () with true -> 0 | false -> 1 | exception _ -> 2)
  | pid ->
      let until = Unix.gettimeofday () +. limit in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < until ->
            Unix.sleepf 0.02;
            wait ()
        | 0, _ ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            Alcotest.failf "%s: still blocked after %.0fs" what limit
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> Alcotest.failf "%s: wrong outcome" what
      in
      wait ()

(* A deadline is honoured when the call returns [Timeout] within 1 s. *)
let times_out call =
  let t0 = Unix.gettimeofday () in
  match call () with
  | Error (Client.Timeout _) -> Unix.gettimeofday () -. t0 < 1.0
  | _ -> false

let test_recv_half_frame_times_out () =
  (* the peer wrote half a frame and went silent *)
  with_socketpair (fun w r ->
      write_all w (Fmt.str "%010d" 100);
      write_all w "half a frame";
      within ~limit:5.0 "recv on a half-written frame" (fun () ->
          times_out (fun () -> Client.recv ~timeout:0.2 r)))

let test_connect_full_backlog_times_out () =
  (* a TCP listener that never accepts, with backlog 0 and one filler
     connection already queued: a further handshake is never answered *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 0;
  let addr = Client.bound_addr fd in
  Fun.protect
    ~finally:(fun () -> Client.close fd)
    (fun () ->
      match Client.connect ~timeout:2.0 addr with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok filler ->
          Fun.protect
            ~finally:(fun () -> Client.close filler)
            (fun () ->
              within ~limit:5.0 "connect to a full accept queue" (fun () ->
                  times_out (fun () -> Client.connect ~timeout:0.2 addr))))

(* --- registry -------------------------------------------------------- *)

let reg_addrs n =
  List.init n (fun i -> Client.Tcp ("10.0.0.1", 7000 + i))

let test_registry_backoff_then_dead () =
  let r = Registry.create ~attempts:3 ~backoff_base:1.0 ~backoff_cap:8.0
      (reg_addrs 2) in
  Alcotest.(check bool) "fresh node available" true
    (Registry.available r 0 ~now:0.);
  Registry.mark_failure r 0 ~now:0.;
  Alcotest.(check string) "one failure backs off" "backoff"
    (Registry.state_name (Registry.node r 0).Registry.nd_state);
  Alcotest.(check bool) "gated out during backoff" false
    (Registry.available r 0 ~now:0.);
  Alcotest.(check bool) "eligible after the gate" true
    (Registry.available r 0 ~now:10.);
  Registry.mark_failure r 0 ~now:10.;
  Registry.mark_failure r 0 ~now:20.;
  Alcotest.(check string) "third consecutive failure is death" "dead"
    (Registry.state_name (Registry.node r 0).Registry.nd_state);
  Alcotest.(check bool) "dead is never available" false
    (Registry.available r 0 ~now:1e9);
  Alcotest.(check int) "one dead node counted" 1 (Registry.dead_count r);
  Alcotest.(check bool) "fleet not all dead" false (Registry.all_dead r);
  Registry.mark_failure r 1 ~now:0.;
  Registry.mark_failure r 1 ~now:10.;
  Registry.mark_failure r 1 ~now:20.;
  Alcotest.(check bool) "both dead: all dead" true (Registry.all_dead r)

let test_registry_success_resets_streak () =
  let r = Registry.create ~attempts:2 ~backoff_base:1.0 ~backoff_cap:8.0
      (reg_addrs 1) in
  Registry.mark_failure r 0 ~now:0.;
  Registry.mark_success r 0;
  Alcotest.(check string) "success snaps back to up" "up"
    (Registry.state_name (Registry.node r 0).Registry.nd_state);
  Registry.mark_failure r 0 ~now:0.;
  Alcotest.(check string)
    "the streak restarted: one failure is backoff, not death" "backoff"
    (Registry.state_name (Registry.node r 0).Registry.nd_state);
  Alcotest.(check int) "total failures still accumulate" 2
    (Registry.node r 0).Registry.nd_failures

let test_registry_next_gate () =
  let r = Registry.create ~attempts:5 ~backoff_base:4.0 ~backoff_cap:64.0
      (reg_addrs 3) in
  Alcotest.(check bool) "no gate when everyone is up" true
    (Registry.next_gate r = None);
  Registry.mark_failure r 0 ~now:100.;
  Registry.mark_failure r 1 ~now:200.;
  match Registry.next_gate r with
  | Some g ->
      Alcotest.(check bool) "earliest gate belongs to the first failure" true
        (g >= 100. && g <= 200.)
  | None -> Alcotest.fail "two backing-off nodes must gate"

let test_registry_next_gate_all_dead () =
  (* Dead nodes must never contribute a gate: a gate over a dead fleet
     would make the dispatch loop sleep toward a wakeup that cannot
     help, instead of declaring the run lost.  All-dead means [None] —
     the loop's signal to stop waiting and fail the remaining units. *)
  let r = Registry.create ~attempts:1 ~backoff_base:4.0 ~backoff_cap:64.0
      (reg_addrs 2) in
  Registry.mark_failure r 0 ~now:100.;
  Registry.mark_failure r 1 ~now:200.;
  Alcotest.(check bool) "every node dead" true (Registry.all_dead r);
  Alcotest.(check bool) "no gate over a dead fleet" true
    (Registry.next_gate r = None)

(* --- fleet kit --------------------------------------------------------- *)

(* Fail the test on a failure the kit recorded (a node never ready, a
   drain that did not exit 0). *)
let check_kit k =
  match Fleet.take k with [] -> () | fs -> Alcotest.fail (String.concat "; " fs)

(* Run [f] with a fleet kit: its scratch directory is removed, and the
   nodes it forked are killed and reaped, however [f] ends. *)
let with_kit name f =
  Fleet.with_kit ("res-test-" ^ name) (fun k ->
      f k;
      check_kit k)

let spool_of k name = Filename.concat k.Fleet.dir (name ^ "-spool")

(* A node daemon spooling under the kit's directory, ready to serve. *)
let node ?(corrupt = "") ?(delay = 0.) ?cache_dir k name =
  let pid, addr =
    Fleet.fork_node k
      {
        Server.default_config with
        Server.spool_dir = spool_of k name;
        cache_dir;
        jobs = 2;
        capacity = 8;
        fi_corrupt_rows = corrupt;
        fi_worker_delay = delay;
      }
  in
  Fleet.node_ready k addr;
  check_kit k;
  (pid, addr)

(* SIGTERM a node; it must drain and exit 0. *)
let drain k pid =
  ignore (Fleet.reap k ~signal:Sys.sigterm "node" pid);
  check_kit k

(* --- end-to-end: forked nodes, byte-identical merged TSV ------------- *)

let corpus_items () = Fleet.corpus ~n_per_bug:1

(* An item whose file did not load: settled locally, never dispatched. *)
let unloadable items =
  {
    Batch.it_name = "zz-unloadable";
    it_prog = (List.hd items).Batch.it_prog;
    it_dump = Error "corrupted: checksum mismatch";
  }

(* A listener bound and immediately closed: a port that refuses. *)
let refusing_addr () =
  let fd, addr = Client.listen_ephemeral () in
  Unix.close fd;
  addr

(* SIGKILL a coordinator run of [items] under [config] (which names a
   cache) once two keys have settled; the settled keys are then what a
   successor finds, counted after opening the cache as it opens it (a
   sealed temp the kill left behind is promoted). *)
let kill_after_two_keys k (config : C.config) items =
  let cache_dir = Option.get config.C.cache_dir in
  let co = Fleet.spawn k (fun () -> ignore (C.run ~config items)) in
  let reached =
    Fleet.await ~timeout:30. ~every:0.01 (fun () ->
        Cache.entry_count cache_dir >= 2)
  in
  Fleet.kill k co;
  Alcotest.(check bool) "two keys settled before the kill" true reached;
  ignore (Cache.openr cache_dir);
  Cache.entry_count cache_dir

(* Kill a coordinator after k settled keys, 2 <= k < [keys], and resume
   it on the same cache: the successor serves the k keys and their
   [copies - 1] duplicates from the cache, applies only the rest, and
   its TSV is [Batch.run]'s. *)
let check_kill_resume k ~baseline ~keys ~copies config items =
  let settled = kill_after_two_keys k config items in
  Alcotest.(check bool)
    (Fmt.str "killed mid-corpus (%d of %d keys settled)" settled keys)
    true
    (settled >= 2 && settled < keys);
  let t = C.run ~config items in
  Alcotest.(check string) "resumed TSV = Batch.run's" baseline.Batch.tsv
    t.C.tsv;
  Alcotest.(check int) "settled keys and their copies from the cache"
    (settled * copies) t.C.stats.C.cs_cache_hits;
  Alcotest.(check int) "and only the rest applied" (keys - settled)
    t.C.stats.C.cs_applied;
  Alcotest.(check int) "nothing lost" 0 t.C.stats.C.cs_lost;
  t

let test_cluster_matches_single_node () =
  with_kit "e2e" @@ fun k ->
  let items = corpus_items () in
  let n = List.length items in
  (* fork-backed baseline: no domains may exist in this binary *)
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let pid1, addr1 = node k "e2e-n1" ~delay:0.1 in
  let pid2, addr2 = node k "e2e-n2" ~delay:0.1 in
  let config = { C.default_config with C.nodes = [ addr1; addr2 ] } in
  let t = C.run ~config items in
  Alcotest.(check string) "merged TSV = single-node triage"
    baseline.Batch.tsv t.C.tsv;
  Alcotest.(check int) "nothing lost" 0 t.C.stats.C.cs_lost;
  Alcotest.(check int) "every unit applied" n t.C.stats.C.cs_applied;
  (* a coordinator killed mid-corpus resumes from its cache *)
  ignore
    (check_kill_resume k ~baseline ~keys:n ~copies:1
       { config with C.cache_dir = Some (Filename.concat k.Fleet.dir "cache") }
       items);
  (* the coordinator owns its units: no node spooled one *)
  List.iter
    (fun name ->
      Alcotest.(check (list string)) (name ^ " spooled no unit") []
        (Array.to_list (Sys.readdir (spool_of k name))))
    [ "e2e-n1"; "e2e-n2" ];
  drain k pid1;
  drain k pid2

let test_cluster_survives_dead_node_in_fleet () =
  with_kit "e2e-dead" @@ fun k ->
  let items = corpus_items () in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let dead = refusing_addr () in
  let pid, addr1 = node k "e2e-dead-n1" in
  let config =
    { C.default_config with C.nodes = [ dead; addr1 ]; node_attempts = 2 }
  in
  let t = C.run ~config items in
  Alcotest.(check string) "TSV identical despite a dead node"
    baseline.Batch.tsv t.C.tsv;
  Alcotest.(check int) "nothing lost" 0 t.C.stats.C.cs_lost;
  Alcotest.(check bool) "units routed at the dead node were retried" true
    (t.C.stats.C.cs_retries >= 1);
  Alcotest.(check bool) "refused connections were charged" true
    (t.C.stats.C.cs_node_failures >= 1);
  Alcotest.(check int) "the dead node was declared dead" 1
    t.C.stats.C.cs_nodes_dead;
  drain k pid

(* A spool written by an older build can hold a coordinator's triage
   unit.  The unit's coordinator is gone, so a node booted on that spool
   retires it as a failed request and runs no worker for it. *)
let test_node_retires_spooled_triage () =
  with_kit "old-spool" @@ fun k ->
  let it = List.hd (corpus_items ()) in
  let spool = Spool.openr (spool_of k "old") in
  let id =
    Spool.accept spool
      ~frame:
        (P.encode_request
           (P.Triage
              {
                tg_name = it.it_name;
                tg_prog = Res_ir.Prog.to_string it.it_prog;
                tg_dump = Io.to_string (Result.get_ok it.it_dump);
                tg_deadline_ms = None;
                tg_fuel = None;
              }))
  in
  let pid, addr = node k "old" in
  (match Client.status addr with
  | Ok (P.Status_reply s) ->
      Alcotest.(check int) "nothing recovered" 0 s.st_recovered;
      Alcotest.(check int) "no worker queued or running" 0
        (s.st_queued + s.st_running);
      Alcotest.(check int) "the unit was retired" 1 s.st_completed
  | _ -> Alcotest.fail "status request failed");
  Alcotest.(check (list string)) "nothing pending in the spool" []
    (Spool.pending spool);
  (match Result.map P.decode_reply (Spool.read_result spool id) with
  | Ok (Ok (P.Result { rs_outcome = "failed"; _ })) -> ()
  | _ -> Alcotest.fail "the retired unit must read back as a failed result");
  drain k pid

(* --- the coordinator is a Batch pipeline: failed rows and cache ------- *)

(* An unloadable item is settled locally as the dump-error row batch
   triage writes; the only node refuses connections, so contacting it
   for the item would show as a node failure. *)
let test_cluster_unloadable_never_dispatched () =
  let items = [ unloadable (corpus_items ()) ] in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let t =
    C.run ~config:{ C.default_config with C.nodes = [ refusing_addr () ] } items
  in
  Alcotest.(check string) "TSV = batch triage's" baseline.Batch.tsv t.C.tsv;
  Alcotest.(check (list string)) "one dump-error row" [ "dump-error" ]
    (List.map (fun r -> r.Batch.row_bucket) t.C.rows);
  Alcotest.(check int) "no node contacted" 0 t.C.stats.C.cs_node_failures;
  Alcotest.(check int) "no retry" 0 t.C.stats.C.cs_retries;
  Alcotest.(check int) "nothing lost" 0 t.C.stats.C.cs_lost

(* A first run against a live node fills the cache; a second run whose
   only node refuses connections answers every unit from it. *)
let test_cluster_cache_answers_dead_fleet () =
  with_kit "coord-cache" @@ fun k ->
  let ok = corpus_items () in
  let items = unloadable ok :: ok in
  let n = List.length ok in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let cache_dir = Filename.concat k.Fleet.dir "cache" in
  let pid, addr = node k "cache-n1" in
  let config =
    { C.default_config with C.nodes = [ addr ]; cache_dir = Some cache_dir }
  in
  let cold = C.run ~config items in
  Alcotest.(check string) "cold TSV = batch triage's" baseline.Batch.tsv
    cold.C.tsv;
  Alcotest.(check int) "cold: every loadable unit from the node" n
    cold.C.stats.C.cs_applied;
  Alcotest.(check int) "cold: one entry per loadable unit" n
    (Cache.entry_count cache_dir);
  let warm =
    C.run ~config:{ config with C.nodes = [ refusing_addr () ] } items
  in
  Alcotest.(check string) "warm TSV byte-identical" cold.C.tsv warm.C.tsv;
  Alcotest.(check int) "every unit a cache hit" n warm.C.stats.C.cs_cache_hits;
  Alcotest.(check int) "nothing lost" 0 warm.C.stats.C.cs_lost;
  Alcotest.(check int) "no node contacted" 0 warm.C.stats.C.cs_node_failures;
  drain k pid

(* Nodes are not trusted by a local [res triage], and the coordinator
   does not assume a local run's config: the two write disjoint keys and
   neither is served the other's entries. *)
let test_cluster_cache_disjoint_from_batch () =
  with_kit "cache-disjoint" @@ fun k ->
  let items = corpus_items () in
  let n = List.length items in
  let batch_dir = Filename.concat k.Fleet.dir "batch-cache" in
  let coord_dir = Filename.concat k.Fleet.dir "coord-cache" in
  let batch_entries () = Array.to_list (Sys.readdir batch_dir) in
  let filled =
    Batch.run ~jobs:1 ~backend:Pool.Forked ~cache:(Cache.openr batch_dir) items
  in
  Alcotest.(check int) "batch filled its cache" n (Cache.entry_count batch_dir);
  let pid, addr = node k "cache-n2" in
  let t =
    C.run
      ~config:
        { C.default_config with C.nodes = [ addr ]; cache_dir = Some coord_dir }
      items
  in
  Alcotest.(check string) "coordinator TSV" filled.Batch.tsv t.C.tsv;
  drain k pid;
  Alcotest.(check int) "coordinator filled its cache" n
    (Cache.entry_count coord_dir);
  Alcotest.(check (list string)) "no key in both" []
    (List.filter
       (fun e -> Sys.file_exists (Filename.concat coord_dir e))
       (batch_entries ()));
  let from_coord =
    Batch.run ~jobs:1 ~backend:Pool.Forked ~cache:(Cache.openr coord_dir) items
  in
  Alcotest.(check int) "batch misses coordinator entries" 0
    from_coord.Batch.cache_hits;
  let from_batch =
    C.run
      ~config:
        {
          C.default_config with
          C.nodes = [ refusing_addr () ];
          cache_dir = Some batch_dir;
          unit_attempts = 1;
        }
      items
  in
  Alcotest.(check int) "coordinator misses batch entries" 0
    from_batch.C.stats.C.cs_cache_hits;
  Alcotest.(check int) "so every unit is lost to the dead node" n
    from_batch.C.stats.C.cs_lost

(* A node caches each verdict as batch triage does, under the batch key
   with its effective budgets: a local [Batch.run] with the node's default
   deadline over the node's cache is served every unit and forks no
   worker. *)
let test_node_cache_serves_batch () =
  with_kit "node-cache" @@ fun k ->
  let items = corpus_items () in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let node_cache = Filename.concat k.Fleet.dir "node-cache" in
  let pid, addr = node k "nc-n1" ~cache_dir:node_cache in
  let t = C.run ~config:{ C.default_config with C.nodes = [ addr ] } items in
  Alcotest.(check string) "coordinator TSV" baseline.Batch.tsv t.C.tsv;
  drain k pid;
  let local =
    Batch.run ~jobs:2 ~backend:Pool.Forked
      ?budget_wall:Server.default_config.Server.default_deadline
      ~cache:(Cache.openr node_cache) items
  in
  Alcotest.(check string) "TSV from the node's cache = Batch.run's"
    baseline.Batch.tsv local.Batch.tsv;
  Alcotest.(check int) "every unit served from the node's cache"
    (List.length items) local.Batch.cache_hits;
  Alcotest.(check int) "no worker forked" 0 local.Batch.workers

(* Every item twice, the copy byte-identical under another name: one
   unit per content key is dispatched, and every copy gets its row. *)
let test_cluster_dispatches_once_per_key () =
  with_kit "dedup" @@ fun k ->
  let originals = corpus_items () in
  let items =
    originals
    @ List.map
        (fun (it : Batch.item) -> { it with it_name = "dup-" ^ it.it_name })
        originals
  in
  let n = List.length originals in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  Alcotest.(check int) "batch: one duplicate per copy" n baseline.Batch.duplicates;
  let pid, addr = node k "dedup-n1" ~delay:0.1 in
  let config = { C.default_config with C.nodes = [ addr ] } in
  let t = C.run ~config items in
  let st = t.C.stats in
  Alcotest.(check string) "TSV = Batch.run's" baseline.Batch.tsv t.C.tsv;
  Alcotest.(check int) "one unit applied per content key" n st.C.cs_applied;
  Alcotest.(check int) "the copies counted as duplicates" n st.C.cs_duplicates;
  Alcotest.(check int) "no retry" 0 st.C.cs_retries;
  Alcotest.(check int) "queries = Batch.run's worker_queries"
    baseline.Batch.worker_queries st.C.cs_queries;
  (match Client.status addr with
  | Ok (P.Status_reply { st_accepted; _ }) ->
      Alcotest.(check int) "the node was sent one unit per key" n st_accepted
  | _ -> Alcotest.fail "status request failed");
  (* SIGKILL a coordinator mid-corpus; its successor serves the settled
     keys and their duplicates from the cache *)
  let t2 =
    check_kill_resume k ~baseline ~keys:n ~copies:2
      { config with C.cache_dir = Some (Filename.concat k.Fleet.dir "cache") }
      items
  in
  List.iter
    (fun (it : Batch.item) ->
      let bucket name =
        (List.find (fun r -> r.Batch.row_name = name) t2.C.rows).Batch.row_bucket
      in
      Alcotest.(check string)
        (it.it_name ^ ": the duplicate has its original's row")
        (bucket it.it_name)
        (bucket ("dup-" ^ it.it_name)))
    originals;
  drain k pid

(* --- byzantine nodes: lying answers are rejected, liars quarantined -- *)

(* A node that falsifies the unit name on every row it returns: the
   structural identity check must reject each lie, the registry must
   walk the liar down its Dead path, and the rescheduled units must
   still produce a TSV byte-identical to single-node triage. *)
let test_cluster_quarantines_byzantine_name () =
  with_kit "bz" @@ fun k ->
  let items = corpus_items () in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let pid_h, addr_h = node k "bz-honest" in
  let _, addr_l = node k "bz-liar" ~corrupt:"name" in
  let config =
    {
      C.default_config with
      C.nodes = [ addr_h; addr_l ];
      node_attempts = 2;
    }
  in
  let t = C.run ~config items in
  Alcotest.(check string)
    "TSV identical despite a lying node" baseline.Batch.tsv t.C.tsv;
  Alcotest.(check int) "nothing lost" 0 t.C.stats.C.cs_lost;
  Alcotest.(check bool)
    "corrupted rows were rejected" true
    (t.C.stats.C.cs_byzantine >= 1);
  Alcotest.(check int) "the liar was quarantined as dead" 1
    t.C.stats.C.cs_nodes_dead;
  Alcotest.(check bool)
    "the liar's units were rescheduled" true
    (t.C.stats.C.cs_reschedules >= 1);
  drain k pid_h

(* A subtler liar: the row is structurally perfect but its verdict
   fields are fabricated.  Only the replay spot-check can expose it:
   with the structural checks alone ([spot_check = 0]) the same lie must
   poison the TSV, proving the replay (not luck) is what kept the first
   run clean. *)
let test_cluster_replay_catches_fabricated_fields () =
  with_kit "bzf" @@ fun k ->
  let items = corpus_items () in
  let baseline = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let pid_h, addr_h = node k "bzf-honest" in
  let _, addr_l = node k "bzf-liar" ~corrupt:"fields" in
  let config spot_check =
    {
      C.default_config with
      C.nodes = [ addr_h; addr_l ];
      node_attempts = 2;
      spot_check;
    }
  in
  let t = C.run ~config:(config 1) items in
  Alcotest.(check string)
    "TSV identical: every fabricated row re-derived and rejected"
    baseline.Batch.tsv t.C.tsv;
  Alcotest.(check int) "nothing lost" 0 t.C.stats.C.cs_lost;
  Alcotest.(check bool)
    "fabricated rows failed the replay" true
    (t.C.stats.C.cs_byzantine >= 1);
  Alcotest.(check int) "the liar was quarantined as dead" 1
    t.C.stats.C.cs_nodes_dead;
  (* negative control: without the replay the lie goes through *)
  let t2 = C.run ~config:(config 0) items in
  Alcotest.(check bool)
    "without the spot check, fabricated rows poison the TSV" false
    (String.equal baseline.Batch.tsv t2.C.tsv);
  Alcotest.(check int) "and none are counted byzantine" 0
    t2.C.stats.C.cs_byzantine;
  drain k pid_h

let () =
  Alcotest.run "cluster"
    [
      ( "transport",
        [
          Alcotest.test_case "parses host:port addresses" `Quick
            test_parse_addr;
          Alcotest.test_case "EOF at a boundary is Closed/Frame_eof" `Quick
            test_damage_eof_at_boundary;
          Alcotest.test_case "torn length prefix is typed" `Quick
            test_damage_torn_header;
          Alcotest.test_case "torn length prefix is Damaged" `Quick
            test_damage_torn_header_transport;
          Alcotest.test_case "torn payload is typed" `Quick
            test_damage_torn_body;
          Alcotest.test_case "corrupt length prefix is typed" `Quick
            test_damage_corrupt_prefix;
          Alcotest.test_case "oversized announcement rejected unallocated"
            `Quick test_damage_oversized_prefix;
          Alcotest.test_case "mid-frame stall is Timeout, never a hang"
            `Quick test_damage_stall_is_timeout;
          Alcotest.test_case "torn seal rejected by the codec" `Quick
            test_damage_torn_seal;
          Alcotest.test_case "half-written frame: recv times out" `Quick
            test_recv_half_frame_times_out;
          Alcotest.test_case "full accept queue: connect times out" `Quick
            test_connect_full_backlog_times_out;
        ] );
      ( "registry",
        [
          Alcotest.test_case "failures back off, then die" `Quick
            test_registry_backoff_then_dead;
          Alcotest.test_case "success resets the streak" `Quick
            test_registry_success_resets_streak;
          Alcotest.test_case "earliest gate drives the sleep" `Quick
            test_registry_next_gate;
          Alcotest.test_case "no gate over a dead fleet" `Quick
            test_registry_next_gate_all_dead;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "two nodes match single-node triage" `Slow
            test_cluster_matches_single_node;
          Alcotest.test_case "a spooled triage unit is retired, not run"
            `Slow test_node_retires_spooled_triage;
          Alcotest.test_case "a dead node reroutes, TSV unchanged" `Slow
            test_cluster_survives_dead_node_in_fleet;
          Alcotest.test_case "a name-lying node is quarantined" `Slow
            test_cluster_quarantines_byzantine_name;
          Alcotest.test_case "replay spot-check catches fabricated fields"
            `Slow test_cluster_replay_catches_fabricated_fields;
          Alcotest.test_case "one dispatch per content key, resumable" `Slow
            test_cluster_dispatches_once_per_key;
          Alcotest.test_case "an unloadable dump is never dispatched" `Quick
            test_cluster_unloadable_never_dispatched;
          Alcotest.test_case "the cache answers a dead fleet" `Slow
            test_cluster_cache_answers_dead_fleet;
          Alcotest.test_case "batch and coordinator entries are disjoint"
            `Slow test_cluster_cache_disjoint_from_batch;
          Alcotest.test_case "a node's cache serves batch triage" `Slow
            test_node_cache_serves_batch;
        ] );
    ]
