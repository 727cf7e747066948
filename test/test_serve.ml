(* The triage service: circuit breaker state machine (with an injected
   clock, no sleeping), protocol codec round-trips and corruption
   rejection, spool durability and crash recovery, and one end-to-end
   daemon lifecycle over a real socket.

   The daemon test forks; like test_parallel, no domains are spawned in
   this binary, so fork is always legal. *)

module Breaker = Res_serve.Breaker
module P = Res_serve.Protocol
module Spool = Res_serve.Spool
module Server = Res_serve.Server
module Client = Res_serve.Client
module Io = Res_vm.Coredump_io

(* --- breaker --------------------------------------------------------- *)

(** A hand-cranked clock: breaker transitions driven by test time, not
    wall time. *)
let make_clock () =
  let t = ref 0. in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let test_breaker_trips_at_threshold () =
  let now, _ = make_clock () in
  let b = Breaker.create ~threshold:3 ~cooldown:5.0 ~now () in
  Alcotest.(check bool) "closed passes" true (Breaker.check b "sig" = Breaker.Pass);
  Breaker.record_timeout b "sig";
  Breaker.record_timeout b "sig";
  Alcotest.(check bool) "still closed below threshold" true
    (Breaker.check b "sig" = Breaker.Pass);
  Breaker.record_timeout b "sig";
  Alcotest.(check string) "third consecutive timeout trips" "open"
    (Breaker.state_name (Breaker.state b "sig"));
  (match Breaker.check b "sig" with
  | Breaker.Reject { retry_ms } ->
      Alcotest.(check bool) "retry hint covers the cooldown" true
        (retry_ms > 0 && retry_ms <= 5000)
  | _ -> Alcotest.fail "open breaker must reject");
  Alcotest.(check int) "one trip recorded" 1 (Breaker.total_trips b)

let test_breaker_success_resets_count () =
  let now, _ = make_clock () in
  let b = Breaker.create ~threshold:3 ~cooldown:5.0 ~now () in
  Breaker.record_timeout b "sig";
  Breaker.record_timeout b "sig";
  Breaker.record_success b "sig";
  Breaker.record_timeout b "sig";
  Breaker.record_timeout b "sig";
  Alcotest.(check string) "a success resets the consecutive count" "closed"
    (Breaker.state_name (Breaker.state b "sig"))

let test_breaker_half_open_probe () =
  let now, advance = make_clock () in
  let b = Breaker.create ~threshold:1 ~cooldown:5.0 ~now () in
  Breaker.record_timeout b "sig";
  Alcotest.(check bool) "open rejects" true
    (match Breaker.check b "sig" with Breaker.Reject _ -> true | _ -> false);
  advance 5.5;
  Alcotest.(check bool) "cooldown elapsed: exactly one probe" true
    (Breaker.check b "sig" = Breaker.Probe);
  Alcotest.(check bool) "second caller during the probe is rejected" true
    (match Breaker.check b "sig" with Breaker.Reject _ -> true | _ -> false);
  Breaker.record_success b "sig";
  Alcotest.(check bool) "probe success closes" true
    (Breaker.check b "sig" = Breaker.Pass)

let test_breaker_probe_failure_reopens () =
  let now, advance = make_clock () in
  let b = Breaker.create ~threshold:1 ~cooldown:5.0 ~now () in
  Breaker.record_timeout b "sig";
  advance 5.5;
  Alcotest.(check bool) "probe admitted" true
    (Breaker.check b "sig" = Breaker.Probe);
  Breaker.record_timeout b "sig";
  Alcotest.(check string) "probe timeout reopens" "open"
    (Breaker.state_name (Breaker.state b "sig"));
  advance 2.0;
  Alcotest.(check bool) "cooldown restarted: still rejecting" true
    (match Breaker.check b "sig" with Breaker.Reject _ -> true | _ -> false);
  Alcotest.(check int) "each trip counted" 2 (Breaker.total_trips b)

let test_breaker_probe_outlives_cooldown () =
  (* The probe is still in flight when the cooldown elapses again: the
     breaker must keep rejecting — one probe per half-open episode, no
     matter how slow the probe is.  Only the probe's own outcome may
     move the state machine. *)
  let now, advance = make_clock () in
  let b = Breaker.create ~threshold:1 ~cooldown:5.0 ~now () in
  Breaker.record_timeout b "sig";
  advance 5.5;
  Alcotest.(check bool) "probe admitted" true
    (Breaker.check b "sig" = Breaker.Probe);
  advance 50.0;
  Alcotest.(check bool) "no second probe while the first is in flight" true
    (match Breaker.check b "sig" with Breaker.Reject _ -> true | _ -> false);
  Alcotest.(check string) "still half-open" "half-open"
    (Breaker.state_name (Breaker.state b "sig"));
  (* the slow probe finally times out: re-open, cooldown restarts from
     now — not from the long-gone first opening *)
  Breaker.record_timeout b "sig";
  Alcotest.(check bool) "cooldown restarted from the probe timeout" true
    (match Breaker.check b "sig" with Breaker.Reject _ -> true | _ -> false);
  advance 5.5;
  Alcotest.(check bool) "next episode gets its probe" true
    (Breaker.check b "sig" = Breaker.Probe)

let test_breaker_signatures_independent () =
  let now, _ = make_clock () in
  let b = Breaker.create ~threshold:1 ~cooldown:5.0 ~now () in
  Breaker.record_timeout b "tar-pit";
  Alcotest.(check bool) "other signatures unaffected" true
    (Breaker.check b "healthy" = Breaker.Pass);
  Alcotest.(check int) "one breaker open" 1 (Breaker.open_count b)

(* --- protocol -------------------------------------------------------- *)

(** Blob contents deliberately include every byte class the envelope or
    a naive escaper could mangle: NUL, CR, a line that looks like the
    seal footer, and the frame length prefix alphabet. *)
let hostile_blob = "a\000b\rc\nend 3 12345\n0123456789\n\"quoted\\\""

let roundtrip_request r =
  match P.decode_request (P.encode_request r) with
  | Ok r' -> r'
  | Error m -> Alcotest.fail ("request did not round-trip: " ^ m)

let roundtrip_reply r =
  match P.decode_reply (P.encode_reply r) with
  | Ok r' -> r'
  | Error m -> Alcotest.fail ("reply did not round-trip: " ^ m)

let test_protocol_request_roundtrip () =
  let submit =
    P.Submit
      {
        sb_prog = hostile_blob;
        sb_dump = String.concat "" (List.init 300 (fun i -> Fmt.str "%c" (Char.chr (i mod 256))));
        sb_deadline_ms = Some 1500;
        sb_fuel = None;
      }
  in
  (match roundtrip_request submit with
  | P.Submit { sb_prog; sb_dump; sb_deadline_ms; sb_fuel } ->
      (match submit with
      | P.Submit s ->
          Alcotest.(check string) "prog blob exact" s.sb_prog sb_prog;
          Alcotest.(check string) "dump blob exact" s.sb_dump sb_dump;
          Alcotest.(check (option int)) "deadline" s.sb_deadline_ms sb_deadline_ms;
          Alcotest.(check (option int)) "fuel" s.sb_fuel sb_fuel
      | _ -> assert false)
  | _ -> Alcotest.fail "submit decoded as another verb");
  List.iter
    (fun r ->
      Alcotest.(check bool) "simple request round-trips" true
        (roundtrip_request r = r))
    [ P.Fetch "r000017"; P.Status; P.Drain; P.Ping ]

let test_protocol_reply_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "reply round-trips" true (roundtrip_reply r = r))
    [
      P.Accepted { ac_id = "r000003"; ac_queued = 2 };
      P.Rejected_overload { ro_queued = 8; ro_capacity = 8 };
      P.Rejected_breaker { rb_signature = hostile_blob; rb_retry_ms = 4999 };
      P.Rejected_draining;
      P.Result
        {
          rs_id = "r000001";
          rs_outcome = "complete";
          rs_timeout = false;
          rs_elapsed_ms = 12;
          rs_body = hostile_blob;
        };
      P.Pending { pd_id = "r000009"; pd_state = "queued" };
      P.Unknown "r999999";
      P.Status_reply
        {
          st_accepted = 10;
          st_completed = 7;
          st_shed = 3;
          st_breaker_rejected = 1;
          st_recovered = 2;
          st_queued = 1;
          st_running = 2;
          st_worker_restarts = 4;
          st_breakers_open = 1;
          st_cache_hits = 5;
          st_draining = true;
          st_breakers =
            [ (hostile_blob, "open", 2); ("vm-crash|f:b:0", "closed", 0) ];
        };
      P.Row
        {
          rw_name = "bug-03";
          rw_elapsed_ms = 41;
          rw_verdict =
            {
              c_outcome = "complete";
              c_timeout = false;
              c_bucket = hostile_blob;
              c_cause = hostile_blob;
              c_nodes = 17;
              c_pruned = 3;
              c_queries = 22;
            };
        };
      P.Drained { dr_remaining = 3 };
      P.Pong 4242;
      P.Err "spool directory vanished";
    ];
  List.iteri
    (fun i v ->
      let r =
        P.Row { rw_name = v.Res_cache.Cache.c_cause; rw_elapsed_ms = i; rw_verdict = v }
      in
      Alcotest.(check bool) "generated row round-trips" true
        (roundtrip_reply r = r))
    (Verdicts.generate 300)

(* Daemon cache entries store [Row] frames verbatim: the encoding of a
   fixed row is pinned byte for byte, so entries written by earlier
   builds keep decoding. *)
let test_protocol_row_golden () =
  let row =
    P.Row
      {
        rw_name = "bug-03";
        rw_elapsed_ms = 41;
        rw_verdict =
          {
            c_outcome = "partial";
            c_timeout = true;
            c_bucket = "uaf|f:a:0\t\"q\"";
            c_cause = "free \\ before\nuse";
            c_nodes = 17;
            c_pruned = 3;
            c_queries = 4611686018427387903;
          };
      }
  in
  let golden =
    "ressrvrep v1\nrow partial 1 41 17 3 4611686018427387903\nname 6\nbug-03\n\
     bucket 13\nuaf|f:a:0\t\"q\"\ncause 17\nfree \\ before\nuse\n\
     end 9 1631136333\n"
  in
  Alcotest.(check string) "ressrvrep v1 row bytes" golden (P.encode_reply row);
  Alcotest.(check bool) "golden bytes decode to the row" true
    (P.decode_reply golden = Ok row)

let test_protocol_rejects_damage () =
  let sealed = P.encode_reply (P.Pong 1) in
  (* bit flip inside the payload: checksum must catch it *)
  let corrupt = Bytes.of_string sealed in
  Bytes.set corrupt (String.length sealed / 2) '\255';
  (match P.decode_reply (Bytes.to_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted payload decoded");
  (* truncation: footer gone *)
  (match P.decode_reply (String.sub sealed 0 (String.length sealed - 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload decoded");
  (* wrong envelope: a request is not a reply *)
  (match P.decode_reply (P.encode_request P.Ping) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request envelope decoded as a reply");
  (* seal intact but the verb is garbage *)
  match P.decode_reply (Io.seal (P.rep_header ^ "\nfrobnicate 1 2\n")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb decoded"

(* --- spool ----------------------------------------------------------- *)

let fresh_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_spool_accept_complete_pending () =
  let dir = fresh_dir "res_spool" in
  let s = Spool.openr dir in
  let f1 = P.encode_request (P.Fetch "x") in
  let id1 = Spool.accept s ~frame:f1 in
  let id2 = Spool.accept s ~frame:f1 in
  Alcotest.(check bool) "fresh ids distinct" true (id1 <> id2);
  Alcotest.(check (list string)) "both pending" [ id1; id2 ] (Spool.pending s);
  let rep =
    P.encode_reply
      (P.Result
         {
           rs_id = id1;
           rs_outcome = "complete";
           rs_timeout = false;
           rs_elapsed_ms = 1;
           rs_body = "b";
         })
  in
  Spool.complete s ~id:id1 ~frame:rep;
  Alcotest.(check (list string)) "completed id no longer pending" [ id2 ]
    (Spool.pending s);
  (match Spool.read_result s id1 with
  | Ok frame -> Alcotest.(check string) "result stored verbatim" rep frame
  | Error _ -> Alcotest.fail "stored result unreadable");
  (* a reopened spool (fresh daemon) sees the same picture and does not
     reuse ids *)
  let s2 = Spool.openr dir in
  Alcotest.(check (list string)) "pending survives reopen" [ id2 ]
    (Spool.pending s2);
  let id3 = Spool.accept s2 ~frame:f1 in
  Alcotest.(check bool) "ids advance past recovered ones" true
    (id3 <> id1 && id3 <> id2);
  List.iter (fun id -> Spool.remove s2 id) [ id1; id2; id3 ];
  Unix.rmdir dir

let test_spool_recovers_torn_journals () =
  let dir = fresh_dir "res_spool_torn" in
  let s = Spool.openr dir in
  let frame = P.encode_request P.Status in
  let id = Spool.accept s ~frame in
  (* a valid journal that a dying writer never renamed: must be promoted *)
  let promoted_dest = Filename.concat dir "r000907.req" in
  let valid_tmp = Io.fresh_tmp_path promoted_dest in
  let oc = open_out valid_tmp in
  output_string oc frame;
  close_out oc;
  (* a torn journal (seal broken): must be deleted, not promoted *)
  let torn_dest = Filename.concat dir "r000908.req" in
  let torn_tmp = Io.fresh_tmp_path torn_dest in
  let oc = open_out torn_tmp in
  output_string oc (String.sub frame 0 (String.length frame / 2));
  close_out oc;
  let s2 = Spool.openr dir in
  Alcotest.(check bool) "valid journal promoted" true
    (Sys.file_exists promoted_dest);
  Alcotest.(check bool) "torn journal deleted" false (Sys.file_exists torn_tmp);
  Alcotest.(check bool) "torn journal not promoted" false
    (Sys.file_exists torn_dest);
  Alcotest.(check (list string)) "promoted request joins pending"
    [ id; "r000907" ] (Spool.pending s2);
  List.iter (fun i -> Spool.remove s2 i) [ id; "r000907" ];
  Unix.rmdir dir

(* --- end-to-end daemon lifecycle ------------------------------------- *)

let workload_texts ?(name = "fig1-overflow") () =
  let w = Res_workloads.Workloads.find name in
  ( Res_ir.Prog.to_string w.Res_workloads.Truth.w_prog,
    Res_vm.Coredump_io.to_string (Res_workloads.Truth.coredump w) )

let offline_body prog_text dump_text =
  Res_solver.Expr.reset_counter_for_tests ();
  let prog = Res_ir.Validate.check_exn (Res_ir.Parser.parse prog_text) in
  let dump =
    match Io.of_string_result dump_text with
    | Ok { Io.dump; _ } -> dump
    | Error _ -> Alcotest.fail "test dump unreadable"
  in
  let ctx = Res_core.Backstep.make_ctx prog in
  let outcome = Res_core.Res.analyze ctx dump in
  Res_core.Report.report_list_to_string ctx (Res_core.Res.analysis outcome)

(* Fork a daemon serving [cfg] on a fresh Unix socket, wait until it
   answers a ping, and run [f socket pid]; the daemon is SIGKILLed and
   reaped afterwards unless [f] reaped it, and its directory removed. *)
let with_daemon cfg f =
  let dir = fresh_dir "res_e2e" in
  let socket = Client.Unix_socket (Filename.concat dir "s.sock") in
  let cfg =
    { cfg with Server.listen = socket; spool_dir = Filename.concat dir "spool" }
  in
  let pid =
    match Unix.fork () with
    | 0 ->
        (try Server.run cfg with _ -> Unix._exit 1);
        Unix._exit 0
    | pid -> pid
  in
  let cleanup () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Res_faultinject.Fleet.rm_rf dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_ready () =
        match Client.ping ~timeout:1.0 socket with
        | Ok (P.Pong _) -> ()
        | _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "daemon never became ready"
            else begin
              Unix.sleepf 0.02;
              wait_ready ()
            end
      in
      wait_ready ();
      f socket pid)

let test_daemon_lifecycle () =
  with_daemon { Server.default_config with Server.jobs = 1; capacity = 4 }
  @@ fun socket pid ->
      let prog, dump = workload_texts () in
      (* malformed submission: typed error, nothing accepted *)
      (match Client.submit_wait socket ~prog:"not a program" ~dump () with
      | Ok (P.Err _, _) -> ()
      | Ok (r, _) ->
          Alcotest.failf "malformed submit: expected error, got %a" P.pp_reply r
      | Error e -> Alcotest.fail (Client.error_to_string e));
      (* good submission: accepted, result pushed, body byte-identical *)
      (match Client.submit_wait socket ~prog ~dump () with
      | Ok (P.Accepted { ac_id; _ }, Some (P.Result { rs_id; rs_outcome; rs_body; _ }))
        ->
          Alcotest.(check string) "result for our id" ac_id rs_id;
          Alcotest.(check string) "complete" "complete" rs_outcome;
          Alcotest.(check string) "body identical to offline analyze"
            (offline_body prog dump) rs_body;
          (* and the spooled copy serves fetch *)
          (match Client.fetch socket ac_id with
          | Ok (P.Result { rs_body = fetched; _ }) ->
              Alcotest.(check string) "fetch returns the same body" rs_body
                fetched
          | Ok reply ->
              Alcotest.failf "fetch: expected result, got %a" P.pp_reply reply
          | Error e -> Alcotest.fail (Client.error_to_string e))
      | Ok (reply, _) ->
          Alcotest.failf "submit: expected accepted+result, got %a" P.pp_reply
            reply
      | Error e -> Alcotest.fail (Client.error_to_string e));
      (match Client.fetch socket "r999999" with
      | Ok (P.Unknown _) -> ()
      | Ok r -> Alcotest.failf "expected unknown, got %a" P.pp_reply r
      | Error e -> Alcotest.fail (Client.error_to_string e));
      (* drain: daemon refuses new work and exits 0 *)
      (match Client.drain socket with
      | Ok (P.Drained _) -> ()
      | Ok r -> Alcotest.failf "expected drained, got %a" P.pp_reply r
      | Error e -> Alcotest.fail (Client.error_to_string e));
      let rec reap tries =
        if tries = 0 then Alcotest.fail "daemon did not exit after drain"
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.sleepf 0.05;
              reap (tries - 1)
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "daemon exited abnormally"
      in
      reap 200

(* A worker that overstays its deadline plus the grace is SIGKILLed, and
   the daemon's deadline hook answers its request as a budget
   exhaustion at once: no retry, no wait for the worker's own end. *)
let test_daemon_hard_deadline () =
  with_daemon
    {
      Server.default_config with
      Server.jobs = 1;
      default_deadline = Some 0.2;
      hard_grace = 0.2;
      fi_worker_delay = 30.;
    }
  @@ fun socket _ ->
  let prog, dump = workload_texts () in
  let t0 = Unix.gettimeofday () in
  (match Client.submit_wait ~timeout:20. socket ~prog ~dump () with
  | Ok (P.Accepted _, Some (P.Result { rs_outcome; rs_timeout; _ })) ->
      Alcotest.(check string) "a partial result" "partial" rs_outcome;
      Alcotest.(check bool) "a budget exhaustion" true rs_timeout
  | Ok (r, _) -> Alcotest.failf "expected accepted+result, got %a" P.pp_reply r
  | Error e -> Alcotest.fail (Client.error_to_string e));
  Alcotest.(check bool) "answered at the deadline, not after the sleep" true
    (Unix.gettimeofday () -. t0 < 10.);
  match Client.status socket with
  | Ok (P.Status_reply { st_worker_restarts; st_running; st_completed; _ }) ->
      Alcotest.(check int) "not retried" 0 st_worker_restarts;
      Alcotest.(check int) "no worker left running" 0 st_running;
      Alcotest.(check int) "the request completed" 1 st_completed
  | _ -> Alcotest.fail "status request failed"

(* The live and unreaped children of process [pid]. *)
let children pid =
  match open_in (Fmt.str "/proc/%d/task/%d/children" pid pid) with
  | exception Sys_error _ -> []
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      String.split_on_char ' ' line
      |> List.filter (( <> ) "")
      |> List.map int_of_string

let fd_count pid = Array.length (Sys.readdir (Fmt.str "/proc/%d/fd" pid))

(* Under a backlog one worker answers request after request, and every
   body is still byte-identical to an offline analysis. *)
let serve_backlog names =
  with_daemon
    { Server.default_config with Server.jobs = 1; fi_worker_delay = 0.3 }
  @@ fun socket pid ->
  let texts = List.map (fun name -> workload_texts ~name ()) names in
  let ids =
    List.map
      (fun (prog, dump) ->
        match Client.submit socket ~prog ~dump () with
        | Ok (conn, P.Accepted { ac_id; _ }) ->
            Client.close conn;
            (ac_id, offline_body prog dump)
        | Ok (_, r) -> Alcotest.failf "expected accepted, got %a" P.pp_reply r
        | Error e -> Alcotest.fail (Client.error_to_string e))
      texts
  in
  let workers = Hashtbl.create 4 and results = Hashtbl.create 4 in
  let all_answered () =
    List.iter (fun c -> Hashtbl.replace workers c ()) (children pid);
    List.iter
      (fun (id, _) ->
        if not (Hashtbl.mem results id) then
          match Client.fetch socket id with
          | Ok (P.Result { rs_id; rs_outcome; rs_body; _ }) ->
              Hashtbl.replace results id (rs_id, rs_outcome, rs_body)
          | _ -> ())
      ids;
    Hashtbl.length results = List.length ids
  in
  Alcotest.(check bool) "every request answered" true
    (Res_faultinject.Fleet.await ~timeout:30. all_answered);
  Alcotest.(check int) "one worker served the backlog" 1
    (Hashtbl.length workers);
  List.iter
    (fun (id, expected) ->
      let rs_id, rs_outcome, rs_body = Hashtbl.find results id in
      Alcotest.(check string) (id ^ ": complete") "complete" rs_outcome;
      Alcotest.(check string) (id ^ ": its own id") id rs_id;
      Alcotest.(check string)
        (id ^ ": body identical to offline analyze")
        expected rs_body)
    ids

let test_daemon_worker_serves_backlog () =
  serve_backlog [ "fig1-overflow"; "div-by-zero"; "double-free" ]

(* A reused worker keeps the per-program summaries of the programs it
   served: program A (the use-after-free program, re-parsed from each
   request), then B, then A again with another dump and with the first
   one.  Every body still equals an offline analysis. *)
let test_daemon_worker_reuses_statics () =
  serve_backlog
    [ "use-after-free-a"; "div-by-zero"; "use-after-free-b"; "use-after-free-a" ]

(* Sequential requests each retire their worker: a daemon that answered
   twenty keeps no zombie and no descriptor of theirs. *)
let test_daemon_sequential_leaves_nothing () =
  with_daemon { Server.default_config with Server.jobs = 1 }
  @@ fun socket pid ->
  let prog, dump = workload_texts () in
  let idle () = children pid = [] in
  let after_first = ref 0 in
  for i = 1 to 20 do
    (match Client.submit_wait socket ~prog ~dump () with
    | Ok (P.Accepted _, Some (P.Result { rs_outcome = "complete"; _ })) -> ()
    | Ok (r, _) -> Alcotest.failf "submit %d: got %a" i P.pp_reply r
    | Error e -> Alcotest.fail (Client.error_to_string e));
    if i = 1 then begin
      Alcotest.(check bool) "the first worker reaped" true
        (Res_faultinject.Fleet.await idle);
      (* let the daemon drop the finished client connection *)
      Unix.sleepf 0.2;
      after_first := fd_count pid
    end
  done;
  Alcotest.(check bool) "no zombie and no descriptor left after 20" true
    (Res_faultinject.Fleet.await (fun () ->
         idle () && fd_count pid = !after_first))

(* --- daemon cache key ---------------------------------------------------- *)

let test_cache_config_keys_every_knob () =
  let key ?(cfg = Server.default_config) ?(task = Server.Analyze)
      ?deadline_ms ?fuel () =
    Server.cache_config cfg ~task ~deadline_ms ~fuel
  in
  let base = key () in
  let with_search f =
    let c = Server.default_config.Server.analyze_config in
    {
      Server.default_config with
      Server.analyze_config = { c with Res_core.Res.search = f c.search };
    }
  in
  Alcotest.(check bool) "reverse-exec flip changes the key" false
    (String.equal base
       (key
          ~cfg:
            (with_search (fun s -> { s with Res_core.Search.reverse_exec = false }))
          ()));
  Alcotest.(check bool) "the task kind changes the key" false
    (String.equal base (key ~task:(Server.Triage_unit "u") ()));
  Alcotest.(check bool) "a budget changes the key" false
    (String.equal base (key ~fuel:7 ()));
  (* the daemon default deadline, spelled out, shares the entry *)
  let default_ms =
    match Server.default_config.Server.default_deadline with
    | Some s -> int_of_float (s *. 1000.)
    | None -> Alcotest.fail "expected a default deadline"
  in
  Alcotest.(check string) "an explicit default deadline is the same key"
    base (key ~deadline_ms:default_ms ());
  Alcotest.(check bool) "keyed through the batch config key" true
    (let b =
       Res_parallel.Batch.config_key
         ?budget_wall:Server.default_config.Server.default_deadline
         Server.default_config.Server.analyze_config
     in
     String.ends_with ~suffix:b base)

let () =
  Alcotest.run "serve"
    [
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick
            test_breaker_trips_at_threshold;
          Alcotest.test_case "success resets the count" `Quick
            test_breaker_success_resets_count;
          Alcotest.test_case "half-open admits one probe" `Quick
            test_breaker_half_open_probe;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
          Alcotest.test_case "probe outlives the cooldown" `Quick
            test_breaker_probe_outlives_cooldown;
          Alcotest.test_case "signatures independent" `Quick
            test_breaker_signatures_independent;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip (hostile blobs)" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "replies round-trip" `Quick
            test_protocol_reply_roundtrip;
          Alcotest.test_case "row bytes pinned" `Quick test_protocol_row_golden;
          Alcotest.test_case "rejects corruption/truncation" `Quick
            test_protocol_rejects_damage;
        ] );
      ( "spool",
        [
          Alcotest.test_case "accept/complete/pending/reopen" `Quick
            test_spool_accept_complete_pending;
          Alcotest.test_case "torn journals recovered at boot" `Quick
            test_spool_recovers_torn_journals;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache key covers every knob" `Quick
            test_cache_config_keys_every_knob;
          Alcotest.test_case "submit/result/fetch/drain lifecycle" `Slow
            test_daemon_lifecycle;
          Alcotest.test_case "hard deadline: killed, answered as timeout"
            `Quick test_daemon_hard_deadline;
          Alcotest.test_case "one worker serves a backlog, bytes identical"
            `Quick test_daemon_worker_serves_backlog;
          Alcotest.test_case "a reused worker serves A, B, A: bytes identical"
            `Quick test_daemon_worker_reuses_statics;
          Alcotest.test_case "sequential requests leave no zombie or fd"
            `Quick test_daemon_sequential_leaves_nothing;
        ] );
    ]
