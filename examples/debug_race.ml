(* Debugging a concurrency bug post-mortem (paper §3.3 and §4).

     dune exec examples/debug_race.exe

   Two worker threads increment a shared counter without holding the lock;
   under an unlucky schedule one update is lost and main's consistency
   assertion fails.  RES reconstructs the interleaving from the coredump
   alone, and the debugger session answers the paper's example hypothesis
   queries over the deterministic replay. *)

let () =
  let w = Res_workloads.Counter_race.workload in
  let prog = w.Res_workloads.Truth.w_prog in
  Fmt.pr "== the buggy program ==@.%s@." (Res_ir.Prog.to_string prog);

  (* production crash under an unlucky interleaving *)
  let dump = Res_workloads.Truth.coredump w in
  Fmt.pr "== production failure ==@.%a@.@." Res_vm.Crash.pp
    dump.Res_vm.Coredump.crash;

  (* RES: coredump -> suffix -> root cause *)
  let ctx = Res_core.Backstep.make_ctx prog in
  let config =
    {
      Res_core.Res.default_config with
      search = { Res_core.Search.default_config with max_segments = 8 };
    }
  in
  let analysis = Res_core.Res.analysis (Res_core.Res.analyze ~config ctx dump) in
  let report = List.hd analysis.Res_core.Res.reports in
  Fmt.pr "== synthesized suffix ==@.%a@." Res_core.Suffix.pp
    report.Res_core.Res.suffix;
  (match report.Res_core.Res.root_cause with
  | Some cause -> Fmt.pr "root cause: %a@.@." Res_core.Rootcause.pp cause
  | None -> ());

  (* open a debugging session over the deterministic replay *)
  let dbg =
    match Res_core.Debugger.start ctx report.Res_core.Res.suffix dump with
    | Ok dbg -> dbg
    | Error msg -> failwith msg
  in
  Fmt.pr "== instruction-level listing of the suffix ==@.";
  Fmt.pr "%a@." Res_core.Debugger.pp dbg;

  let layout = Res_mem.Layout.of_prog prog in
  let counter = Res_mem.Layout.global_base layout "counter" in

  (* the write history of the corrupted location *)
  Fmt.pr "== write history of `counter` ==@.";
  List.iter
    (fun p ->
      Fmt.pr "step %d: counter %d -> %d@." p
        (Res_core.Debugger.mem_at dbg p counter)
        (Res_core.Debugger.mem_at dbg (p + 1) counter))
    (Res_core.Debugger.writes_to dbg counter);

  (* hypothesis: was a worker preempted between its read and its write? *)
  Fmt.pr "@.== hypothesis testing ==@.";
  List.iter
    (fun tid ->
      match Res_core.Debugger.preempted_before_update dbg ~tid ~addr:counter with
      | Some answer ->
          Fmt.pr
            "was thread %d preempted before updating `counter`?  %b@." tid answer
      | None -> Fmt.pr "thread %d never updates `counter` in this suffix@." tid)
    [ 1; 2 ];

  (* "what was the program state when executing at pc X?" *)
  let assert_pc = Res_ir.Pc.v ~func:"main" ~block:"check" ~idx:4 in
  (match Res_core.Debugger.break_at dbg assert_pc with
  | Some p ->
      Fmt.pr "@.== state when main reached the assert (step %d) ==@." p;
      Fmt.pr "counter = %d (expected 2: one update was lost)@."
        (Res_core.Debugger.mem_at dbg p counter)
  | None -> Fmt.pr "assert pc not reached?!@.");

  (* reverse debugging: walk backward from the crash *)
  Fmt.pr "@.== reverse stepping from the crash ==@.";
  let n = Res_core.Debugger.total_steps dbg in
  Fmt.pr "step %d: crash (counter=%d)@." n
    (Res_core.Debugger.mem_at dbg n counter);
  List.iter
    (fun back ->
      let p = n - back in
      if p >= 0 then
        Fmt.pr "step %d: %a   (counter=%d)@." p
          Fmt.(list ~sep:(any "; ") Res_vm.Event.pp)
          (Res_core.Debugger.events_at dbg p)
          (Res_core.Debugger.mem_at dbg p counter))
    [ 1; 2; 3; 4; 5 ]
