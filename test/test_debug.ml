(* Tests for the time-travel debugger (lib/debug) and the snapshot-indexed
   Debugger rebase (lib/core): indexed state reconstruction must be
   bit-for-bit the replay-from-zero baseline, reverse/forward navigation
   must round-trip, watchpoint and transition-watchpoint answers must
   match a linear scan, and scripted transcripts must be byte-identical
   across snapshot intervals. *)

open Res_core

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

module IMap = Map.Make (Int)

(* One reproducing suffix per workload, shared across tests. *)
let sessions = Hashtbl.create 16

let suffix_for (w : Res_workloads.Truth.t) =
  match Hashtbl.find_opt sessions w.Res_workloads.Truth.w_name with
  | Some v -> v
  | None ->
      let dump = Res_workloads.Truth.coredump w in
      let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
      let result =
        Search.search
          ~config:
            { Search.default_config with max_segments = 8; max_suffixes = 8 }
          ctx dump
      in
      let complete, rest =
        List.partition (fun s -> s.Suffix.complete) result.Search.suffixes
      in
      match Debugger.start_first ctx (complete @ rest) dump with
      | None ->
          Alcotest.failf "%s: no reproducing suffix" w.Res_workloads.Truth.w_name
      | Some (suffix, _) ->
          let v = (ctx, suffix, dump) in
          Hashtbl.add sessions w.Res_workloads.Truth.w_name v;
          v

let debugger ?(interval = 64) ctx suffix dump =
  match Debugger.start ~snapshot_every:interval ctx suffix dump with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let session ?interval ctx suffix dump =
  Res_debug.Session.create (debugger ?interval ctx suffix dump)

let workload name =
  List.find
    (fun w -> w.Res_workloads.Truth.w_name = name)
    Res_workloads.Workloads.all

(* States are equal when their persistent components read equally; the
   tracer is presentation-only and ignored. *)
let states_equal (a : Res_vm.Exec.state) (b : Res_vm.Exec.state) =
  a.Res_vm.Exec.steps = b.Res_vm.Exec.steps
  && Res_mem.Memory.equal a.Res_vm.Exec.mem b.Res_vm.Exec.mem
  && Res_mem.Heap.blocks a.Res_vm.Exec.heap
     = Res_mem.Heap.blocks b.Res_vm.Exec.heap
  && IMap.equal Res_vm.Thread.equal a.Res_vm.Exec.threads
       b.Res_vm.Exec.threads

(* Copy the fields of the shared mutable seek cursor that tests compare. *)
let snap_state (st : Res_vm.Exec.state) =
  (st.Res_vm.Exec.steps, st.Res_vm.Exec.mem, st.Res_vm.Exec.heap,
   st.Res_vm.Exec.threads)

(* --- snapshot index vs replay-from-zero baseline --- *)

(* Every position, ascending, then descending (the backward window's
   sweep), then a fixed-seed mix of backward and forward jumps: single
   steps (inside a window), jumps of about an interval (leaving it and
   entering the next) and random positions.  Each indexed state must be
   the replay-from-zero state, bit for bit. *)
let check_index_matches_linear name (ctx, suffix, dump) intervals =
  let lin =
    let dbg = debugger ~interval:0 ctx suffix dump in
    Array.init (Debugger.total_steps dbg + 1) (Debugger.state_at_linear dbg)
  in
  let n = Array.length lin - 1 in
  check bool_t (name ^ ": non-empty timeline") true (n > 0);
  List.iter
    (fun interval ->
      let dbg = debugger ~interval ctx suffix dump in
      let at why p =
        let steps, mem, heap, threads = snap_state (Debugger.state_at dbg p) in
        check bool_t
          (Fmt.str "%s interval %d: %s state_at %d matches linear" name
             interval why p)
          true
          (states_equal lin.(p)
             { (lin.(p)) with Res_vm.Exec.steps; mem; heap; threads })
      in
      for p = 0 to n do
        at "ascending" p
      done;
      for p = n downto 0 do
        at "descending" p
      done;
      let rng = Random.State.make [| 29 |] in
      let k = if interval = 0 || interval > n then 8 else interval in
      let pos = ref 0 in
      for _ = 1 to 400 do
        let d = 1 + Random.State.int rng 3 in
        (pos :=
           match Random.State.int rng 6 with
           | 0 | 1 -> !pos - d
           | 2 -> !pos + d
           | 3 -> !pos - k - d + 2
           | 4 -> !pos + k + d - 2
           | _ -> Random.State.int rng (n + 1));
        pos := max 0 (min n !pos);
        at "mixed" !pos
      done)
    intervals

(* [suffix] with its segments rewritten by [f]; it must still reproduce,
   but no longer be pinned. *)
let unpinned wname f =
  let ctx, suffix, dump = suffix_for (workload wname) in
  let s = { suffix with Suffix.segments = f suffix.Suffix.segments } in
  let v = Replay.replay ctx s dump in
  check bool_t (wname ^ ": rewritten suffix reproduces") true v.Replay.reproduced;
  check bool_t (wname ^ ": rewritten suffix is not pinned") false v.Replay.pinned;
  (ctx, s, dump)

(* One reproducing suffix of each of four workloads, plus two whose
   replay leaves its scripts: a first scripted tid that is not runnable,
   so the scheduler skips it and falls back to round-robin, and a scripted
   input nobody reads.  The index must follow the replay there too. *)
let test_index_matches_linear () =
  List.iter
    (fun wname ->
      check_index_matches_linear wname
        (suffix_for (workload wname))
        [ 64; 7; 1; 0; max_int ])
    [ "fig1-overflow"; "counter-race"; "double-free"; "long-exec-50" ];
  let skipped_tid =
    unpinned "counter-race" (function
      | seg :: rest -> { seg with Suffix.seg_tid = seg.Suffix.seg_tid + 1 } :: rest
      | [] -> Alcotest.fail "empty suffix")
  and unread_input =
    unpinned "fig1-overflow" (fun segs ->
        match List.rev segs with
        | last :: rest ->
            let unread =
              (Res_ir.Instr.Net, Res_solver.Expr.fresh_sym "unread")
            in
            List.rev
              ({ last with Suffix.seg_inputs = last.Suffix.seg_inputs @ [ unread ] }
              :: rest)
        | [] -> Alcotest.fail "empty suffix")
  in
  check_index_matches_linear "counter-race, skipped tid" skipped_tid
    [ 64; 7; 1; 0 ];
  check_index_matches_linear "fig1-overflow, unread input" unread_input
    [ 64; 7; 1; 0 ]

let test_index_interval_sweep () =
  let ctx, suffix, dump = suffix_for (workload "counter-race") in
  let mems interval =
    let dbg = debugger ~interval ctx suffix dump in
    List.init
      (Debugger.total_steps dbg + 1)
      (fun p ->
        Res_mem.Memory.bindings (Debugger.state_at dbg p).Res_vm.Exec.mem)
  in
  let base = mems 64 in
  List.iter
    (fun interval ->
      check bool_t
        (Fmt.str "interval %d yields identical memories" interval)
        true
        (mems interval = base))
    [ 1; 7; 0; -1 ]

(* A full reverse walk re-executes each instruction at most once, as a
   forward walk does: every backward miss replays at most the interval and
   keeps the images of what it replayed. *)
let test_reverse_walk_work () =
  let ctx, suffix, dump = suffix_for (workload "long-exec-50") in
  let dbg = debugger ~interval:16 ctx suffix dump in
  let n = Debugger.total_steps dbg in
  check bool_t "timeline spans several intervals" true (n > 3 * 16);
  for p = n downto 0 do
    ignore (Debugger.state_at dbg p)
  done;
  let s = Debugger.stats dbg in
  check bool_t
    (Fmt.str "reverse walk re-executes %d <= %d instructions" s.replayed n)
    true (s.replayed <= n);
  check bool_t
    (Fmt.str "reverse walk restores %d <= %d snapshots" s.snapshot_restores
       ((n / 16) + 2))
    true
    (s.snapshot_restores <= (n / 16) + 2);
  check int_t "every other step back is a window restore"
    (n - s.snapshot_restores) s.window_restores;
  for p = 0 to n do
    ignore (Debugger.state_at dbg p)
  done;
  let s' = Debugger.stats dbg in
  check bool_t "the forward walk back re-executes at most the timeline" true
    (s'.replayed - s.replayed <= n)

(* --- step / step-back round trips --- *)

let test_round_trip () =
  let ctx, suffix, dump = suffix_for (workload "counter-race") in
  let s = session ~interval:7 ctx suffix dump in
  let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let exec line =
    match Res_debug.Session.exec_line s null line with
    | `Ok -> ()
    | `Err -> Alcotest.failf "command failed: %s" line
    | `Quit -> Alcotest.fail "unexpected quit"
  in
  let n = Res_debug.Session.length s in
  (* forward k then back k lands at the start, from several anchors *)
  List.iter
    (fun k ->
      exec "goto 0";
      exec (Fmt.str "step %d" k);
      check int_t (Fmt.str "step %d" k) (min k n) (Res_debug.Session.position s);
      exec (Fmt.str "step-back %d" k);
      check int_t (Fmt.str "round trip %d" k) 0 (Res_debug.Session.position s))
    [ 1; 3; n; n + 5 ];
  (* state at an interior position equals a fresh linear reconstruction *)
  let dbg = debugger ~interval:7 ctx suffix dump in
  exec (Fmt.str "goto %d" (n / 2));
  exec "step-back 2";
  exec "step 2";
  let lin = Debugger.state_at_linear dbg (n / 2) in
  check bool_t "wandering preserves exactness" true
    (Res_mem.Memory.equal lin.Res_vm.Exec.mem
       (Debugger.state_at dbg (Res_debug.Session.position s)).Res_vm.Exec.mem)

(* --- breakpoints --- *)

let test_break_all () =
  let ctx, suffix, dump = suffix_for (workload "counter-race") in
  let dbg = debugger ctx suffix dump in
  let pc = Res_ir.Pc.v ~func:"worker" ~block:"upd" ~idx:2 in
  let all = Debugger.break_all dbg pc in
  check int_t "both racing writes found" 2 (List.length all);
  check bool_t "break_at is the head of break_all" true
    (Debugger.break_at dbg pc = Some (List.hd all));
  (* cross-check against a manual scan of the trace *)
  let manual =
    List.filter_map
      (fun (e : Res_vm.Event.t) ->
        if Res_ir.Pc.equal e.Res_vm.Event.pc pc then Some e.Res_vm.Event.step
        else None)
      (Debugger.trace dbg)
  in
  check bool_t "break_all matches manual scan" true (all = manual)

(* Every breakpoint hit is a position [state_at] takes: at each hit of
   each executed pc (and the faulting pc), some thread is about to run
   that pc. *)
let test_break_hits_are_positions () =
  List.iter
    (fun wname ->
      let ctx, suffix, dump = suffix_for (workload wname) in
      let dbg = debugger ~interval:7 ctx suffix dump in
      let pcs =
        (Debugger.crash dbg).Res_vm.Crash.pc
        :: List.map (fun (e : Res_vm.Event.t) -> e.Res_vm.Event.pc)
             (Debugger.trace dbg)
        |> List.sort_uniq Res_ir.Pc.compare
      in
      List.iter
        (fun pc ->
          let hits = Debugger.break_all dbg pc in
          check bool_t
            (Fmt.str "%s: %a is hit" wname Res_ir.Pc.pp pc)
            true (hits <> []);
          List.iter
            (fun p ->
              let at_pc _ th =
                match Res_vm.Thread.top_opt th with
                | Some fr -> Res_ir.Pc.equal (Res_vm.Frame.pc fr) pc
                | None -> false
              in
              check bool_t
                (Fmt.str "%s: a thread is at %a at hit %d" wname Res_ir.Pc.pp
                   pc p)
                true
                (IMap.exists at_pc (Debugger.state_at dbg p).Res_vm.Exec.threads))
            hits)
        pcs)
    [ "counter-race"; "kvstore-stats-race" ]

(* The count [break] prints is the number of times [continue] stops
   there: one per {!Debugger.break_all} position, also where a thread's
   final [ret] executes two pcs (ret, then halt) at one position. *)
let test_break_prints_hit_count () =
  let printed s pc =
    let buf = Buffer.create 64 in
    let ppf = Format.formatter_of_buffer buf in
    (match
       Res_debug.Session.exec_line s ppf (Fmt.str "break %a" Res_ir.Pc.pp pc)
     with
    | `Ok -> ()
    | `Err | `Quit -> Alcotest.failf "break %a failed" Res_ir.Pc.pp pc);
    Format.pp_print_flush ppf ();
    Scanf.sscanf (Buffer.contents buf) "breakpoint #%_d at %_s (%d hits"
      Fun.id
  in
  List.iter
    (fun wname ->
      let ctx, suffix, dump = suffix_for (workload wname) in
      let dbg = debugger ctx suffix dump in
      let s = Res_debug.Session.create dbg in
      let pcs =
        List.map (fun (e : Res_vm.Event.t) -> e.Res_vm.Event.pc)
          (Debugger.trace dbg)
        |> List.sort_uniq Res_ir.Pc.compare
      in
      List.iter
        (fun pc ->
          check int_t
            (Fmt.str "%s: %a hit count" wname Res_ir.Pc.pp pc)
            (List.length (Debugger.break_all dbg pc))
            (printed s pc))
        pcs;
      if wname = "counter-race" then
        check int_t "counter-race: each worker's final ret hits once" 2
          (printed s (Res_ir.Pc.v ~func:"worker" ~block:"upd" ~idx:3)))
    [ "counter-race"; "kvstore-stats-race" ]

let test_shared_scan () =
  let ctx, suffix, dump = suffix_for (workload "counter-race") in
  let dbg = debugger ctx suffix dump in
  let layout =
    Res_mem.Layout.of_prog (workload "counter-race").Res_workloads.Truth.w_prog
  in
  let counter = Res_mem.Layout.global_base layout "counter" in
  let writes = Debugger.writes_to dbg counter in
  check int_t "two writes to the counter" 2 (List.length writes);
  (* writes_to and steps_of_thread share a unit: each write position is a
     step of the writing thread, and the write lands between p and p+1 *)
  List.iter
    (fun p ->
      match
        List.find_opt Res_vm.Event.is_write (Debugger.events_at dbg p)
      with
      | Some ({ Res_vm.Event.action = Res_vm.Event.A_write { value; _ }; _ }
              as e) ->
          check bool_t "write position is a step of the writer" true
            (List.mem p (Debugger.steps_of_thread dbg e.Res_vm.Event.tid));
          check int_t "the write lands at p + 1" value
            (Debugger.mem_at dbg (p + 1) counter)
      | _ -> Alcotest.failf "no write at position %d" p)
    writes;
  (* steps_of_thread partitions the positions that emit events *)
  let by_thread =
    List.concat_map (fun tid -> Debugger.steps_of_thread dbg tid) [ 0; 1; 2 ]
  in
  let with_events =
    List.filter
      (fun p -> Debugger.events_at dbg p <> [])
      (List.init (Debugger.total_steps dbg) Fun.id)
  in
  check (Alcotest.list int_t) "thread partition covers the timeline"
    with_events
    (List.sort compare by_thread)

(* --- watchpoints vs linear scan --- *)

let test_watchpoint_matches_scan () =
  let ctx, suffix, dump = suffix_for (workload "counter-race") in
  let s = session ~interval:7 ctx suffix dump in
  let layout =
    Res_mem.Layout.of_prog (workload "counter-race").Res_workloads.Truth.w_prog
  in
  let counter = Res_mem.Layout.global_base layout "counter" in
  let dbg = debugger ~interval:7 ctx suffix dump in
  let n = Debugger.total_steps dbg in
  let value_at p =
    Res_mem.Memory.read (Debugger.state_at dbg p).Res_vm.Exec.mem counter
  in
  (* linear scan: first position where the value differs from position 0 *)
  let expected =
    let rec go p = if p > n then None else if value_at p <> value_at 0 then Some p else go (p + 1) in
    go 1
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  ignore (Res_debug.Session.exec_line s ppf (Fmt.str "watch [0x%x]" counter));
  ignore (Res_debug.Session.exec_line s ppf "continue");
  Format.pp_print_flush ppf ();
  (match expected with
  | Some p ->
      check int_t "continue stops where the linear scan says" p
        (Res_debug.Session.position s)
  | None -> Alcotest.fail "counter never changes?");
  check bool_t "transcript mentions the watchpoint" true
    (String.length (Buffer.contents buf) > 0)

(* --- transition watchpoints: binary search vs linear scan --- *)

let test_transition_matches_scan () =
  List.iter
    (fun wname ->
      let ctx, suffix, dump = suffix_for (workload wname) in
      let dbg = debugger ~interval:7 ctx suffix dump in
      let n = Debugger.total_steps dbg in
      (* predicate: the first-written address has reached its final value *)
      let addr =
        List.find_map
          (fun (e : Res_vm.Event.t) ->
            match e.Res_vm.Event.action with
            | Res_vm.Event.A_write { addr; _ } -> Some addr
            | _ -> None)
          (Debugger.trace dbg)
      in
      match addr with
      | None -> () (* workload without writes: nothing to search *)
      | Some addr ->
          let final = Res_mem.Memory.read dump.Res_vm.Coredump.mem addr in
          let eval st =
            if Res_mem.Memory.read st.Res_vm.Exec.mem addr = final then 1
            else 0
          in
          let linear =
            let v0 = eval (Debugger.state_at dbg 0) in
            let rec go p =
              if p > n then None
              else if eval (Debugger.state_at dbg p) <> v0 then
                Some p
              else go (p + 1)
            in
            go 1
          in
          (match Debugger.find_transition dbg eval with
          | None ->
              check bool_t (wname ^ ": no transition iff endpoints agree")
                true (linear = None)
          | Some tr ->
              let p = tr.Debugger.tr_pos in
              (* the returned pair really is an adjacent flip *)
              check bool_t (wname ^ ": genuine transition") true
                (eval (Debugger.state_at dbg (p - 1))
                 <> eval (Debugger.state_at dbg p));
              (* a monotone predicate makes it THE first flip *)
              (match linear with
              | Some lp when lp = p -> ()
              | Some lp ->
                  check bool_t
                    (Fmt.str "%s: bisection %d vs linear %d (non-monotone ok)"
                       wname p lp)
                    true
                    (eval (Debugger.state_at dbg (p - 1)) = 0
                    && eval (Debugger.state_at dbg p) = 1)
              | None -> Alcotest.fail (wname ^ ": bisection found a flip the scan missed"));
              (* O(log n) probes: endpoints + ceil(log2 n) bisections *)
              let bound =
                let rec log2 n = if n <= 1 then 0 else 1 + log2 ((n + 1) / 2) in
                2 + log2 n + 1
              in
              check bool_t
                (Fmt.str "%s: %d probes within O(log %d) bound %d" wname
                   tr.Debugger.tr_probes n bound)
                true
                (tr.Debugger.tr_probes <= bound)))
    [ "fig1-overflow"; "counter-race"; "long-exec-50"; "kvstore-stats-race" ]

(* --- scripted sessions: transcript byte-identity across intervals --- *)

let transcript interval ctx suffix dump script =
  let r = Res_debug.Script.run_lines (session ~interval ctx suffix dump) script in
  (r.Res_debug.Script.transcript, r.Res_debug.Script.exit_code)

let test_interval_transcripts () =
  List.iter
    (fun wname ->
      let ctx, suffix, dump = suffix_for (workload wname) in
      let script =
        [
          "where";
          "threads";
          "step 2";
          "list 2";
          "regs";
          "continue";
          "where";
          "step-back 3";
          "continue-back";
          "goto 0";
          "assert 1 + 1 == 2";
        ]
      in
      let base = transcript 64 ctx suffix dump script in
      List.iter
        (fun interval ->
          let t = transcript interval ctx suffix dump script in
          check string_t
            (Fmt.str "%s: interval %d transcript" wname interval)
            (fst base) (fst t);
          check int_t
            (Fmt.str "%s: interval %d exit code" wname interval)
            (snd base) (snd t))
        [ 7; 1; 0 ])
    [ "fig1-overflow"; "counter-race"; "long-exec-50" ]

(* --- script exit codes --- *)

let test_script_exit_codes () =
  let ctx, suffix, dump = suffix_for (workload "fig1-overflow") in
  let code script = snd (transcript 64 ctx suffix dump script) in
  check int_t "all asserts pass" 0 (code [ "where"; "assert 1" ]);
  check int_t "assert failure is 2" 2 (code [ "assert 0" ]);
  check int_t "parse error is 1" 1 (code [ "frobnicate" ]);
  check int_t "error beats assert failure" 1 (code [ "assert 0"; "frobnicate" ]);
  check int_t "quit stops the script" 0 (code [ "quit"; "frobnicate" ])

(* --- hostile input: every parse failure is a typed error ------------- *)

let test_predicate_negative_paths () =
  List.iter
    (fun src ->
      match Res_debug.Predicate.parse src with
      | Ok _ -> Alcotest.failf "%S must not parse" src
      | Error msg ->
          check bool_t
            (Fmt.str "%S fails with a reason" src)
            true
            (String.length msg > 0))
    [
      "";
      "0x";
      "99999999999999999999";
      String.make 5000 '(';
      String.make 5000 '-';
      String.make 5000 '[';
      "t99999999999999999999:r1";
      "1 +";
      "(1";
      "[w0";
      "@";
      "\x00\xff\xfe";
    ]

let test_command_negative_paths () =
  List.iter
    (fun line ->
      match Res_debug.Command.parse line with
      | Ok _ -> Alcotest.failf "%S must not parse" line
      | Error _ -> ())
    [
      "frobnicate";
      "step 99999999999999999999";
      "break";
      "break notanumber";
      "delete many args here";
      "print";
      "print " ^ String.make 4000 '(';
      "mem";
      "goto 0x";
      "assert";
    ]

(* Script lines the REPL must survive: oversized, NUL-laced, non-UTF8 —
   each a typed [error:] line and exit 1, never an exception, and the
   session keeps serving well-formed commands afterwards. *)
let test_script_hostile_lines () =
  let ctx, suffix, dump = suffix_for (workload "fig1-overflow") in
  let run script = Res_debug.Script.run_lines (session ctx suffix dump) script in
  let code script = (run script).Res_debug.Script.exit_code in
  check int_t "oversized line is a typed error" 1
    (code [ "print " ^ String.make 8192 'a' ]);
  check int_t "NUL byte is a typed error" 1 (code [ "wh\x00ere" ]);
  check int_t "non-UTF8 garbage is a typed error" 1 (code [ "\xff\xfe\xc0" ]);
  check int_t "depth bomb is a typed error" 1
    (code [ "print " ^ String.make 4000 '(' ]);
  let r = run [ "\xff\xfe"; "assert 1 + 1 == 2" ] in
  check int_t "session survives the hostile line" 1
    r.Res_debug.Script.exit_code;
  check bool_t "and still executes what follows" true
    (let open Res_debug.Script in
     String.length r.transcript > 0);
  (* EOF mid-line: a script with no final newline still runs cleanly *)
  check int_t "script without trailing newline" 0
    (Res_debug.Script.run_script (session ctx suffix dump) "where\nassert 1")
      .Res_debug.Script.exit_code

(* --- the whole corpus drives the campaign --- *)

let test_campaign_subset () =
  let s =
    Res_faultinject.Faultinject.debug_equivalence_campaign
      ~workloads:
        [
          workload "lock-order-deadlock";
          workload "div-by-zero";
          workload "semantic-discount";
        ]
      ()
  in
  check int_t "subset campaign all equivalent" 3
    s.Res_faultinject.Differential.ok;
  check bool_t "no failures" true
    (s.Res_faultinject.Differential.failures = [])

let () =
  Alcotest.run "res_debug"
    [
      ( "snapshot index",
        [
          Alcotest.test_case "indexed state == linear replay" `Quick
            test_index_matches_linear;
          Alcotest.test_case "interval sweep identical" `Quick
            test_index_interval_sweep;
          Alcotest.test_case "reverse walk re-executes each step once" `Quick
            test_reverse_walk_work;
        ] );
      ( "navigation",
        [
          Alcotest.test_case "step/step-back round trips" `Quick
            test_round_trip;
        ] );
      ( "breakpoints",
        [
          Alcotest.test_case "break_all every hit" `Quick test_break_all;
          Alcotest.test_case "hits are state_at positions" `Quick
            test_break_hits_are_positions;
          Alcotest.test_case "break prints the hit count" `Quick
            test_break_prints_hit_count;
          Alcotest.test_case "shared event scan" `Quick test_shared_scan;
        ] );
      ( "watchpoints",
        [
          Alcotest.test_case "watchpoint == linear scan" `Quick
            test_watchpoint_matches_scan;
          Alcotest.test_case "transition == linear scan, O(log n)" `Quick
            test_transition_matches_scan;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "transcripts byte-identical across intervals"
            `Quick test_interval_transcripts;
          Alcotest.test_case "exit codes" `Quick test_script_exit_codes;
          Alcotest.test_case "campaign subset" `Quick test_campaign_subset;
        ] );
      ( "hostile-input",
        [
          Alcotest.test_case "predicate parser rejects typed" `Quick
            test_predicate_negative_paths;
          Alcotest.test_case "command parser rejects typed" `Quick
            test_command_negative_paths;
          Alcotest.test_case "script survives hostile lines" `Quick
            test_script_hostile_lines;
        ] );
    ]
