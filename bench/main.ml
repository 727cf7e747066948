(* Benchmark harness: regenerates every figure/table/claim of the paper
   (see DESIGN.md §4 and EXPERIMENTS.md).  The paper is a HotOS vision
   paper with one figure and a one-paragraph evaluation; each experiment
   below reifies one of its quantitative or qualitative claims.  Run with
   `dune exec bench/main.exe`; pass experiment ids (e.g. `e3 e5`) to run a
   subset, or `bechamel` for the microbenchmark suite. *)

let section id title = Fmt.pr "@.=== %s: %s ===@." (String.uppercase_ascii id) title

(* Wall clock, not [Sys.time]: process CPU time misses forked workers. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let analyze ?(max_segments = 8) w =
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let config =
    {
      Res_core.Res.default_config with
      search =
        { Res_core.Search.default_config with max_segments; max_nodes = 30_000 };
    }
  in
  (dump, ctx, Res_core.Res.analysis (Res_core.Res.analyze ~config ctx dump))

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: predecessor disambiguation on the buffer overflow.   *)
(* Paper: "Since x = 1 in the coredump, and only Pred1 ever sets x to   *)
(* 1, then Pred1 must be part of the correct execution suffix; RES      *)
(* discards the execution suffix that traverses Pred2."                 *)
(* ------------------------------------------------------------------ *)
let e1 () =
  section "e1" "Figure 1 — buffer overflow, predecessor disambiguation";
  let w = Res_workloads.Fig1.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let snap0 = Res_core.Snapshot.of_coredump dump in
  let r1 =
    Res_core.Backstep.step_back ctx snap0 ~tid:0
      ~kind:
        (Res_core.Backstep.K_partial
           (Some dump.Res_vm.Coredump.crash.Res_vm.Crash.kind))
  in
  let snap1 = (List.hd r1.Res_core.Backstep.applied).Res_core.Backstep.ap_snapshot in
  Fmt.pr "coredump: x=%d, y=%d, crash=%a@."
    (Res_vm.Coredump.read dump (Res_mem.Layout.globals_base + 5))
    (Res_vm.Coredump.read dump (Res_mem.Layout.globals_base + 7))
    Res_vm.Crash.pp_kind dump.Res_vm.Coredump.crash.Res_vm.Crash.kind;
  List.iter
    (fun pred ->
      let r =
        Res_core.Backstep.step_back ctx snap1 ~tid:0
          ~kind:(Res_core.Backstep.K_full { block = pred })
      in
      Fmt.pr "candidate %-6s -> %s@." pred
        (if r.Res_core.Backstep.applied <> [] then "FEASIBLE (kept)"
         else "infeasible (discarded)"))
    [ "pred1"; "pred2" ];
  let result =
    Res_core.Search.search
      ~config:{ Res_core.Search.default_config with max_segments = 6 }
      ctx dump
  in
  List.iter
    (fun s ->
      if s.Res_core.Suffix.complete then
        Fmt.pr "complete suffix: %a@."
          Fmt.(list ~sep:(any " -> ") string)
          (List.map (fun seg -> seg.Res_core.Suffix.seg_block) s.Res_core.Suffix.segments))
    result.Res_core.Search.suffixes

(* ------------------------------------------------------------------ *)
(* E2 — §4: "We evaluated RES on three synthetic concurrency bugs...    *)
(* In all the cases RES was able to identify the correct root cause in  *)
(* less than 1 minute... it had no false positives."                    *)
(* ------------------------------------------------------------------ *)
let e2 () =
  section "e2" "§4 preliminary evaluation — three synthetic concurrency bugs";
  Fmt.pr "%-24s %-10s %-44s %-8s %s@." "bug" "time(s)" "root cause" "correct"
    "false positives";
  let balance_race_workload =
    {
      Res_workloads.Truth.w_name = "balance-race";
      w_prog = Res_workloads.Corpus.same_stack_race;
      w_bug = Res_workloads.Truth.B_data_race;
      w_crash_config =
        (fun () ->
          {
            (Res_vm.Exec.default_config ()) with
            sched = Res_vm.Sched.create (Res_vm.Sched.Fixed [ 0; 1; 2; 1; 2; 0; 0 ]);
          });
      w_description = "";
    }
  in
  List.iter
    (fun w ->
      let (_, _, analysis), dt = time (fun () -> analyze w) in
      let cause = Res_core.Res.best_cause analysis in
      let correct =
        match cause with
        | Some c -> Res_workloads.Truth.matches w.Res_workloads.Truth.w_bug c
        | None -> false
      in
      (* false positives: a reproduced, deterministic suffix classified
         with a *definite* cause that contradicts ground truth *)
      let false_pos =
        List.length
          (List.filter
             (fun (r : Res_core.Res.report) ->
               match r.Res_core.Res.root_cause with
               | Some c ->
                   Res_core.Res.definite_cause c
                   && not (Res_workloads.Truth.matches w.Res_workloads.Truth.w_bug c)
               | None -> false)
             analysis.Res_core.Res.reports)
      in
      Fmt.pr "%-24s %-10.3f %-44s %-8b %d@." w.Res_workloads.Truth.w_name dt
        (match cause with
        | Some c -> Res_core.Rootcause.signature c
        | None -> "(none)")
        correct false_pos)
    [
      Res_workloads.Counter_race.workload;
      balance_race_workload;
      Res_workloads.Deadlock.workload;
    ];
  Fmt.pr "paper: all 3 root causes correct, < 1 minute, no false positives@."

(* ------------------------------------------------------------------ *)
(* E3 — the title claim: suffix synthesis is independent of execution   *)
(* length; whole-execution (forward) synthesis is not.                  *)
(* ------------------------------------------------------------------ *)
(* Best of [n] wall-clock runs, each from a compacted heap. *)
let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    Gc.compact ();
    let _, dt = time f in
    best := Float.min !best dt
  done;
  !best

(* The same claim along the other axis: the suffix depth d on one long
   execution.  [analyze] is [Res.analyze]; [search] is the d successive
   [Search.search] calls it makes, depth 1 to d on one context; [replay]
   is the replay chain it runs, every reported suffix shortest first
   through one [Replay.Chain] (on long-exec every synthesized suffix is
   reported), and [handoffs] the replays that chain handed off to the
   suffix one segment shorter; [classify] re-runs [Rootcause.classify] on
   every reported suffix; [render] is [Report.report_list_to_string],
   whose size is [bytes] and whose MD5 is [digest] (a renderer that
   changes bytes but not their count shows there).  Times are ms, best
   of 7. *)
let e3_depth_sweep () =
  let w = Res_workloads.Long_exec.workload_n 60_000 in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let open Res_core in
  Fmt.pr "@.depth sweep on long-exec (60000 iterations), ms, best of 7:@.";
  Fmt.pr "%-6s %-8s %-8s %-8s %-9s %-8s %-8s %-8s %s@." "d" "analyze" "search"
    "replay" "classify" "render" "bytes" "handoffs" "digest";
  List.iter
    (fun d ->
      let config =
        {
          Res.default_config with
          search = { Res.default_config.search with Search.max_segments = d };
        }
      in
      let a = Res.analysis (Res.analyze ~config ctx dump) in
      let suffixes =
        List.stable_sort
          (fun x y -> compare (Suffix.length x) (Suffix.length y))
          (List.map (fun (r : Res.report) -> r.Res.suffix) a.Res.reports)
      in
      let chain () =
        let c = Replay.Chain.create () in
        List.iter (fun s -> ignore (Replay.Chain.replay c ctx s dump)) suffixes;
        c
      in
      let traces =
        List.map (fun s -> (Replay.replay ctx s dump).Replay.trace) suffixes
      in
      let analyze = best_of 7 (fun () -> Res.analyze ~config ctx dump) in
      let search =
        best_of 7 (fun () ->
            for k = 1 to d do
              ignore
                (Search.search
                   ~config:{ config.Res.search with Search.max_segments = k }
                   ctx dump)
            done)
      in
      let replay = best_of 7 chain in
      let classify =
        best_of 7 (fun () ->
            List.map
              (Rootcause.classify
                 ~threads:(Res_vm.Coredump.threads dump)
                 ~crash:dump.Res_vm.Coredump.crash ~heap:dump.Res_vm.Coredump.heap
                 ~layout:ctx.Backstep.layout)
              traces)
      in
      let text = Report.report_list_to_string ctx a in
      let render = best_of 7 (fun () -> Report.report_list_to_string ctx a) in
      let ms s = 1000. *. s in
      Fmt.pr "%-6d %-8.2f %-8.2f %-8.2f %-9.2f %-8.2f %-8d %-8d %s@." d (ms analyze)
        (ms search) (ms replay) (ms classify) (ms render) (String.length text)
        (Replay.Chain.handoffs (chain ()))
        (Digest.to_hex (Digest.string text)))
    [ 25; 50; 100; 200; 400 ];
  Fmt.pr "expected shape: nodes linear in d, d - 1 handoffs; time above \
          linear while every depth's suffix is reported@."

let e3 () =
  section "e3" "cost vs execution length — RES vs forward synthesis";
  Fmt.pr "%-8s %-12s %-12s %-14s %-12s@." "n" "res-nodes" "res-time(s)"
    "fwd-segments" "fwd-time(s)";
  List.iter
    (fun n ->
      let w = Res_workloads.Long_exec.workload_n n in
      let dump = Res_workloads.Truth.coredump w in
      let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
      let res_result, res_t =
        time (fun () ->
            Res_core.Search.search
              ~config:
                {
                  Res_core.Search.default_config with
                  max_segments = 3;
                  max_suffixes = 1;
                }
              ctx dump)
      in
      let fwd, fwd_t =
        time (fun () ->
            Res_baselines.Forward_synth.synthesize
              ~config:
                {
                  Res_baselines.Forward_synth.default_config with
                  max_segments_total = 2_000_000;
                  max_depth = 2_000_000;
                }
              w.Res_workloads.Truth.w_prog dump)
      in
      Fmt.pr "%-8d %-12d %-12.4f %-14d %-12.4f%s@." n
        res_result.Res_core.Search.stats.Res_core.Search.nodes res_t
        fwd.Res_baselines.Forward_synth.stats
          .Res_baselines.Forward_synth.segments_executed
        fwd_t
        (if not fwd.Res_baselines.Forward_synth.found then "  (not found!)" else ""))
    [ 10; 100; 1000; 10000 ];
  Fmt.pr "expected shape: RES flat, forward linear in n@.";
  e3_depth_sweep ()

(* ------------------------------------------------------------------ *)
(* E4 — §3.1: "WER can incorrectly bucket up to 37%% of the bug         *)
(* reports"; root-cause bucketing fixes both fragmentation and merging. *)
(* ------------------------------------------------------------------ *)
let e4 () =
  section "e4" "triaging accuracy — stack-hash (WER) vs root cause (RES)";
  let reports = Res_workloads.Corpus.generate ~n_per_bug:4 () in
  let as_triage =
    List.map
      (fun (r : Res_workloads.Corpus.report) ->
        ( { Res_usecases.Triage.t_id = r.r_id; t_prog = r.r_prog; t_dump = r.r_dump },
          r.r_bug ))
      reports
  in
  let rs = List.map fst as_triage in
  let truth r = List.assq r as_triage in
  let eval name key =
    let buckets = Res_usecases.Triage.bucket ~key rs in
    let q = Res_usecases.Triage.quality ~truth ~buckets rs in
    Fmt.pr "%-4s %a@." name Res_usecases.Triage.pp_quality q;
    List.iter
      (fun (k, l) -> Fmt.pr "  %-50s %d report(s)@." k (List.length l))
      buckets
  in
  eval "WER" (fun (r : Res_usecases.Triage.report) ->
      Res_usecases.Triage.wer_key r.t_dump);
  eval "RES" Res_usecases.Triage.res_key;
  Fmt.pr "paper: WER mis-buckets up to 37%% of reports@."

(* ------------------------------------------------------------------ *)
(* E5 — §3.2: detecting hardware errors as coredump/history             *)
(* inconsistencies, and identifying the corrupted location.             *)
(* ------------------------------------------------------------------ *)
let e5 () =
  section "e5" "hardware-error identification";
  Fmt.pr "%-28s %-12s %-40s %s@." "case" "truth" "verdict" "correct";
  let correct = ref 0 and total = ref 0 in
  List.iter
    (fun (c : Res_workloads.Hw_fault.case) ->
      let dump = Res_workloads.Hw_fault.coredump_of_case c in
      let v, _dt = time (fun () -> Res_usecases.Hwdiag.diagnose c.c_prog dump) in
      let is_hw = match v with Res_usecases.Hwdiag.Hardware _ -> true | _ -> false in
      incr total;
      if is_hw = c.c_hardware then incr correct;
      Fmt.pr "%-28s %-12s %-40s %b@." c.c_name
        (if c.c_hardware then "hardware" else "software")
        (Fmt.str "%a" Res_usecases.Hwdiag.pp_verdict v)
        (is_hw = c.c_hardware))
    Res_workloads.Hw_fault.cases;
  Fmt.pr "accuracy: %d/%d@." !correct !total

(* ------------------------------------------------------------------ *)
(* E6 — §2.4: "LBR provides a precise execution suffix that can         *)
(* substantially trim the search space in RES."                         *)
(* ------------------------------------------------------------------ *)
let e6 () =
  section "e6" "LBR breadcrumbs vs search-space size";
  Fmt.pr "%-10s %-12s %-12s %-10s@." "lbr-depth" "candidates" "nodes" "suffixes";
  List.iter
    (fun lbr_depth ->
      let w = Res_workloads.Long_exec.workload_n 64 in
      let config =
        { (w.Res_workloads.Truth.w_crash_config ()) with lbr_depth }
      in
      let dump =
        match Res_vm.Exec.run_to_coredump ~config w.Res_workloads.Truth.w_prog with
        | Some d, _ -> d
        | None, _ -> failwith "no crash"
      in
      let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
      let result =
        Res_core.Search.search
          ~config:
            {
              Res_core.Search.default_config with
              max_segments = 6;
              max_suffixes = 16;
              use_breadcrumbs = lbr_depth > 0;
            }
          ctx dump
      in
      Fmt.pr "%-10d %-12d %-12d %-10d@." lbr_depth
        result.Res_core.Search.stats.Res_core.Search.candidates
        result.Res_core.Search.stats.Res_core.Search.nodes
        (List.length result.Res_core.Search.suffixes))
    [ 0; 2; 4; 8; 16 ];
  Fmt.pr "expected shape: candidates shrink as LBR depth grows@."

(* ------------------------------------------------------------------ *)
(* E7 — §6: hard-to-invert constructs are crossed by re-executing them  *)
(* forward; without that, the backward walk stalls.                     *)
(* ------------------------------------------------------------------ *)
let e7 () =
  section "e7" "hash construct — forward re-execution on/off";
  let w = Res_workloads.Hash_construct.workload in
  let dump = Res_workloads.Truth.coredump w in
  Fmt.pr "%-22s %-14s %-12s %-10s@." "forward re-execution" "max-suffix-len"
    "complete?" "suffixes";
  List.iter
    (fun inline_calls ->
      let sym_config = { Res_symex.Symexec.default_config with inline_calls } in
      let ctx =
        Res_core.Backstep.make_ctx ~sym_config w.Res_workloads.Truth.w_prog
      in
      let result =
        Res_core.Search.search
          ~config:
            { Res_core.Search.default_config with max_segments = 8; max_suffixes = 4 }
          ctx dump
      in
      let max_len =
        List.fold_left
          (fun acc s -> max acc (Res_core.Suffix.length s))
          0 result.Res_core.Search.suffixes
      in
      let complete =
        List.exists (fun s -> s.Res_core.Suffix.complete) result.Res_core.Search.suffixes
      in
      Fmt.pr "%-22s %-14d %-12b %-10d@."
        (if inline_calls then "enabled" else "disabled")
        max_len complete
        (List.length result.Res_core.Search.suffixes))
    [ true; false ];
  Fmt.pr "expected shape: enabled crosses the hash, disabled stalls before it@."

(* ------------------------------------------------------------------ *)
(* E8 — §3.1/§5: taint-over-suffix vs !exploitable heuristics.          *)
(* ------------------------------------------------------------------ *)
let e8 () =
  section "e8" "exploitability — RES taint vs !exploitable heuristic";
  let cases =
    [
      (Res_workloads.Heap_overflow.workload_tainted, true);
      (Res_workloads.Heap_overflow.workload_internal, false);
      (Res_workloads.Fig1.workload, true);
      (Res_workloads.Uaf.workload_variant 0, false);
      (Res_workloads.Double_free.workload, false);
    ]
  in
  Fmt.pr "%-24s %-10s %-26s %-26s@." "workload" "truth" "res" "heuristic";
  let res_ok = ref 0 and heur_ok = ref 0 in
  List.iter
    (fun (w, expected) ->
      let dump = Res_workloads.Truth.coredump w in
      let e = Res_usecases.Exploit.classify_dump w.Res_workloads.Truth.w_prog dump in
      let h =
        Res_baselines.Exploitable_heuristic.rate w.Res_workloads.Truth.w_prog dump
      in
      let res_says = e.Res_usecases.Exploit.rating = Res_usecases.Exploit.Exploitable in
      let heur_says = h = Res_baselines.Exploitable_heuristic.H_exploitable in
      if res_says = expected then incr res_ok;
      if heur_says = expected then incr heur_ok;
      Fmt.pr "%-24s %-10b %-26s %-26s@." w.Res_workloads.Truth.w_name expected
        (Res_usecases.Exploit.rating_name e.Res_usecases.Exploit.rating)
        (Res_baselines.Exploitable_heuristic.rating_name h))
    cases;
  Fmt.pr "accuracy: RES %d/%d, heuristic %d/%d@." !res_ok (List.length cases)
    !heur_ok (List.length cases)

(* ------------------------------------------------------------------ *)
(* E9 — §2 requirement (5): "execution E deterministically leads to C". *)
(* ------------------------------------------------------------------ *)
let e9 () =
  section "e9" "replay determinism — 10 replays per synthesized suffix";
  Fmt.pr "%-24s %-10s %-10s %-14s@." "workload" "witnessed" "replays"
    "exact matches";
  List.iter
    (fun w ->
      let dump, ctx, analysis = analyze w in
      match analysis.Res_core.Res.reports with
      | [] -> Fmt.pr "%-24s (no reproduced suffix)@." w.Res_workloads.Truth.w_name
      | r :: _ ->
          let _, verdicts =
            Res_core.Replay.replay_deterministically ~times:10 ctx
              r.Res_core.Res.suffix dump
          in
          (* exact: reproduced, pinned, and identical in trace and
             failure state to the witnessed replay behind the report *)
          let exact =
            List.length
              (List.filter
                 (Res_core.Replay.agree r.Res_core.Res.verdict)
                 verdicts)
          in
          Fmt.pr "%-24s %-10b %-10d %-14d@." w.Res_workloads.Truth.w_name
            r.Res_core.Res.deterministic 10 exact)
    Res_workloads.Workloads.all

(* ------------------------------------------------------------------ *)
(* E10 — §2.2/§5: static backward slicing (PSE) is imprecise; RES's     *)
(* suffix pinpoints.                                                    *)
(* ------------------------------------------------------------------ *)
let e10 () =
  section "e10" "root-cause localization — PSE slice vs RES suffix";
  Fmt.pr "%-24s %-12s %-12s %-14s %-14s@." "workload" "slice-size"
    "slice-stores" "suffix-blocks" "suffix-instrs";
  List.iter
    (fun w ->
      let dump = Res_workloads.Truth.coredump w in
      let prog = w.Res_workloads.Truth.w_prog in
      let s = Res_baselines.Pse.slice prog (Res_vm.Coredump.crash_pc dump) in
      let ctx = Res_core.Backstep.make_ctx prog in
      let result =
        Res_core.Search.search
          ~config:
            { Res_core.Search.default_config with max_segments = 8; max_suffixes = 4 }
          ctx dump
      in
      let best =
        match
          List.find_opt (fun x -> x.Res_core.Suffix.complete) result.Res_core.Search.suffixes
        with
        | Some x -> Some x
        | None -> (
            match result.Res_core.Search.suffixes with
            | x :: _ -> Some x
            | [] -> None)
      in
      match best with
      | None -> Fmt.pr "%-24s (no suffix)@." w.Res_workloads.Truth.w_name
      | Some suffix ->
          Fmt.pr "%-24s %-12d %-12d %-14d %-14d@." w.Res_workloads.Truth.w_name
            (Res_baselines.Pse.size s)
            (List.length s.Res_baselines.Pse.store_sites)
            (Res_core.Suffix.length suffix)
            (Res_core.Suffix.length_steps suffix))
    [
      Res_workloads.Fig1.workload;
      Res_workloads.Div_zero.workload;
      Res_workloads.Uaf.workload_variant 0;
      Res_workloads.Semantic.workload;
    ];
  Fmt.pr "expected shape: slices over-approximate, suffixes stay small@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: per-operation costs of the RES pipeline.   *)
(* ------------------------------------------------------------------ *)
let bechamel () =
  section "bechamel" "microbenchmarks of the RES pipeline (monotonic clock)";
  let open Bechamel in
  let fig1_dump = Res_workloads.Truth.coredump Res_workloads.Fig1.workload in
  let fig1_ctx = Res_core.Backstep.make_ctx Res_workloads.Fig1.prog in
  let race_dump = Res_workloads.Truth.coredump Res_workloads.Counter_race.workload in
  let race_ctx = Res_core.Backstep.make_ctx Res_workloads.Counter_race.prog in
  let fig1_suffix =
    let r =
      Res_core.Search.search
        ~config:{ Res_core.Search.default_config with max_segments = 6 }
        fig1_ctx fig1_dump
    in
    List.find (fun s -> s.Res_core.Suffix.complete) r.Res_core.Search.suffixes
  in
  (* The coredump codec on a triage-corpus dump, and the program printer
     on its program: the per-dump fixed costs of loading and re-keying a
     fleet's crash reports (a batch renders each distinct program once). *)
  let corpus_report = List.hd (Res_workloads.Corpus.generate ~n_per_bug:1 ()) in
  let corpus_dump = corpus_report.Res_workloads.Corpus.r_dump in
  let corpus_prog = corpus_report.Res_workloads.Corpus.r_prog in
  let corpus_text = Res_vm.Coredump_io.to_string corpus_dump in
  (* File loads of that dump: a copy of a content loaded before, and a
     content never seen (a cycle through distinct dumps whose text
     outgrows the load memo, so every load decodes; each result is kept,
     as a corpus keeps its items) -- what the memo saves on a corpus of
     copies, and what it costs one of distinct dumps. *)
  let load_dir = Filename.temp_dir "res-bench-load" "" in
  let save name text =
    let path = Filename.concat load_dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let copy_path = save "copy.core" corpus_text in
  let distinct_paths =
    Array.init
      ((2 * Res_vm.Coredump_io.memo_bound / String.length corpus_text) + 1)
      (fun i ->
        save (Fmt.str "new-%d.core" i)
          (Res_vm.Coredump_io.to_string { corpus_dump with Res_vm.Coredump.steps = i }))
  in
  let next_distinct = ref 0 in
  let held = Array.make (Array.length distinct_paths) None in
  (* Analysis contexts: for a program whose summaries the memo holds
     (warm), and for one it does not (cold: a cycle through more
     structurally distinct long-exec programs than the memo keeps, so
     every call builds them). *)
  let cold_progs =
    Array.init (Res_core.Backstep.statics_bound + 1) (fun i ->
        (Res_workloads.Long_exec.workload_n (1000 + i)).Res_workloads.Truth.w_prog)
  in
  let next_cold = ref 0 in
  let main_func = Res_ir.Prog.main corpus_prog in
  (* The report list of a depth-60 long-exec analysis: 60 reports, suffix
     k + 1 extending suffix k, as the deep-chain regime renders them. *)
  let render_ctx, render_analysis =
    let w = Res_workloads.Long_exec.workload_n 60_000 in
    let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
    let config =
      {
        Res_core.Res.default_config with
        search = { Res_core.Search.default_config with max_segments = 60 };
      }
    in
    ( ctx,
      Res_core.Res.analysis
        (Res_core.Res.analyze ~config ctx (Res_workloads.Truth.coredump w)) )
  in
  let tests =
    Test.make_grouped ~name:"res"
      [
        Test.make ~name:"backstep(fig1 crash segment)"
          (Staged.stage (fun () ->
               let snap = Res_core.Snapshot.of_coredump fig1_dump in
               ignore
                 (Res_core.Backstep.step_back fig1_ctx snap ~tid:0
                    ~kind:
                      (Res_core.Backstep.K_partial
                         (Some fig1_dump.Res_vm.Coredump.crash.Res_vm.Crash.kind)))));
        Test.make ~name:"search(fig1, depth 6)"
          (Staged.stage (fun () ->
               ignore
                 (Res_core.Search.search
                    ~config:{ Res_core.Search.default_config with max_segments = 6 }
                    fig1_ctx fig1_dump)));
        Test.make ~name:"analyze(counter race)"
          (Staged.stage (fun () ->
               ignore (Res_core.Res.analyze race_ctx race_dump)));
        Test.make ~name:"replay(fig1 suffix)"
          (Staged.stage (fun () ->
               ignore (Res_core.Replay.replay fig1_ctx fig1_suffix fig1_dump)));
        Test.make ~name:"coredump decode"
          (Staged.stage (fun () ->
               ignore (Res_vm.Coredump_io.of_string_result corpus_text)));
        Test.make ~name:"coredump load (copy)"
          (Staged.stage (fun () -> ignore (Res_vm.Coredump_io.load_result copy_path)));
        Test.make ~name:"coredump load (new content)"
          (Staged.stage (fun () ->
               let i = !next_distinct in
               next_distinct := (i + 1) mod Array.length distinct_paths;
               held.(i) <- Some (Res_vm.Coredump_io.load_result distinct_paths.(i))));
        Test.make ~name:"make_ctx (cold)"
          (Staged.stage (fun () ->
               let i = !next_cold in
               next_cold := (i + 1) mod Array.length cold_progs;
               ignore (Res_core.Backstep.make_ctx cold_progs.(i))));
        Test.make ~name:"make_ctx (warm)"
          (Staged.stage (fun () -> ignore (Res_core.Backstep.make_ctx corpus_prog)));
        Test.make ~name:"Func.all_regs"
          (Staged.stage (fun () -> ignore (Res_ir.Func.all_regs main_func)));
        Test.make ~name:"coredump encode"
          (Staged.stage (fun () ->
               ignore (Res_vm.Coredump_io.to_string corpus_dump)));
        Test.make ~name:"report render (long-exec d=60)"
          (Staged.stage (fun () ->
               ignore (Res_core.Report.report_list_to_string render_ctx render_analysis)));
        Test.make ~name:"program render"
          (Staged.stage (fun () -> ignore (Res_ir.Prog.to_string corpus_prog)));
        Test.make ~name:"envelope validate"
          (Staged.stage (fun () ->
               ignore (Res_core.Sealing.validate ~header:"coredump v2" corpus_text)));
        Test.make ~name:"vm-run(fig1 to crash)"
          (Staged.stage (fun () ->
               ignore
                 (Res_vm.Exec.run
                    ~config:(Res_workloads.Fig1.crash_config ())
                    Res_workloads.Fig1.prog)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun e -> Sys.remove (Filename.concat load_dir e)) (Sys.readdir load_dir);
        Sys.rmdir load_dir)
      (fun () -> Benchmark.all cfg instances tests)
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure per_test ->
      Fmt.pr "measure: %s@." measure;
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
        |> List.sort compare
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Fmt.pr "  %-36s %12.1f ns/run@." name est
          | _ -> Fmt.pr "  %-36s (no estimate)@." name)
        rows)
    merged

(* ------------------------------------------------------------------ *)
(* E11 — §1: "RES interprets the entire coredump, not just a minidump,  *)
(* which makes RES strictly more powerful."  With only stacks and no    *)
(* memory contents, Fig. 1's disambiguation evaporates.                 *)
(* ------------------------------------------------------------------ *)
let e11 () =
  section "e11" "full coredump vs minidump (ablation)";
  let w = Res_workloads.Fig1.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  Fmt.pr "%-14s %-18s %-22s@." "input" "complete suffixes" "predecessors kept";
  List.iter
    (fun (name, snapshot0) ->
      let result =
        Res_core.Search.search
          ~config:
            { Res_core.Search.default_config with max_segments = 6; max_suffixes = 8 }
          ?snapshot0 ctx dump
      in
      let complete =
        List.filter (fun s -> s.Res_core.Suffix.complete) result.Res_core.Search.suffixes
      in
      let preds =
        List.concat_map
          (fun s ->
            List.filter_map
              (fun seg ->
                let b = seg.Res_core.Suffix.seg_block in
                if String.length b >= 4 && String.sub b 0 4 = "pred" then Some b
                else None)
              s.Res_core.Suffix.segments)
          complete
        |> List.sort_uniq compare
      in
      Fmt.pr "%-14s %-18d %a@." name (List.length complete)
        Fmt.(list ~sep:comma string)
        preds)
    [
      ("full coredump", None);
      ( "minidump",
        Some
          (Res_core.Snapshot.of_minidump dump ~layout:ctx.Res_core.Backstep.layout)
      );
    ];
  Fmt.pr
    "expected shape: the full dump keeps only pred1; the minidump cannot \
     refute pred2 and keeps both@."

(* ------------------------------------------------------------------ *)
(* A1 — design-choice ablation: the address-pool heuristic.  Havocked   *)
(* pointer registers (e.g. a halted worker's base pointer) have no      *)
(* constraints until the end-of-block check; resolving them against     *)
(* plausible mapped addresses (suffix-touched first) is what lets the   *)
(* backward walk cross such segments at all.                            *)
(* ------------------------------------------------------------------ *)
let a1 () =
  section "a1" "ablation — unconstrained-pointer resolution via address pool";
  let w = Res_workloads.Counter_race.workload in
  let dump = Res_workloads.Truth.coredump w in
  Fmt.pr "%-14s %-18s %-14s %-22s@." "addr pool" "suffixes found" "max length"
    "complete reconstruction";
  List.iter
    (fun use_addr_pool ->
      let ctx =
        Res_core.Backstep.make_ctx ~use_addr_pool w.Res_workloads.Truth.w_prog
      in
      let result =
        Res_core.Search.search
          ~config:
            { Res_core.Search.default_config with max_segments = 8; max_suffixes = 8 }
          ctx dump
      in
      let max_len =
        List.fold_left
          (fun acc s -> max acc (Res_core.Suffix.length s))
          0 result.Res_core.Search.suffixes
      in
      Fmt.pr "%-14s %-18d %-14d %-22b@."
        (if use_addr_pool then "enabled" else "disabled")
        (List.length result.Res_core.Search.suffixes)
        max_len
        (List.exists
           (fun s -> s.Res_core.Suffix.complete)
           result.Res_core.Search.suffixes))
    [ true; false ];
  Fmt.pr "expected shape: without the pool the walk cannot cross the halted \
          workers' segments@."

(* ------------------------------------------------------------------ *)
(* E14 — goal-directed static pruning.  The chain refuter discards      *)
(* candidate backward steps whose constraint system is statically       *)
(* unsatisfiable, before any symbolic execution or solving — and, being *)
(* admissible, must leave the reports byte-identical.                   *)
(* ------------------------------------------------------------------ *)
let e14 () =
  section "e14" "static chain-refutation pruning — work saved, reports equal";
  let module D = Res_faultinject.Differential in
  Fmt.pr "%-24s %-12s %-12s %-10s %-12s %-10s@." "workload" "nodes(off)"
    "nodes(on)" "pruned" "reduction" "reports";
  let s =
    Res_faultinject.Faultinject.prune_equivalence_campaign
      ~workloads:
        (List.map Res_workloads.Workloads.find
           [
             "fig1-overflow";
             "long-exec-50";
             "kvstore-stats-race";
             "counter-race";
             "div-by-zero";
           ])
      ()
  in
  List.iter
    (fun r ->
      let off = D.count r "nodes" and on = D.count r "static-prune.nodes" in
      let reduction =
        if off = 0 then 0.
        else 100. *. float_of_int (off - on) /. float_of_int off
      in
      Fmt.pr "%-24s %-12d %-12d %-10d %-12s %-10s@." r.D.name off on
        (D.count r "static-prune.pruned")
        (Fmt.str "%.1f%%" reduction)
        (if r.D.equivalent then "identical" else "DIVERGED"))
    s.D.runs;
  Fmt.pr
    "expected shape: long-exec drops >=30%% of backward-step evaluations; \
     every report column reads 'identical'@."

(* A self-test campaign's summary, then one line per failed run. *)
let pp_campaign (s : Res_faultinject.Differential.summary) =
  let module D = Res_faultinject.Differential in
  Fmt.pr "%a@." D.pp_summary s;
  List.iter (Fmt.pr "FAILURE: %a@." D.pp_run) s.D.failures

(* ------------------------------------------------------------------ *)
(* E16: the triage service under abuse.  Runs the full soak campaign — *)
(* flood at 2x capacity, worker SIGKILLs, daemon SIGKILL + restart on  *)
(* the spool, breaker trip/recovery, graceful drain — and prints the   *)
(* service-contract numbers: zero lost accepted requests, zero body    *)
(* mismatches vs offline analyze, and client-observed latency.  Forks  *)
(* (daemon + workers), so it must run before any domains experiment.   *)
(* ------------------------------------------------------------------ *)
let e16 () =
  section "e16" "triage service — soak: overload, kills, restart, drain";
  pp_campaign (Res_faultinject.Faultinject.serve_soak_campaign ());
  Fmt.pr
    "expected shape: 6/6 runs passed; shed > 0 (admission control sheds \
     the overflow), lost = 0 and mismatched = 0 (the service contract), \
     recovered > 0 (the SIGKILLed daemon's accepted requests survive on the \
     spool), tripped = reclosed = 1 (the breaker trips and its half-open \
     probe closes it again)@."

(* ------------------------------------------------------------------ *)
(* E17: the multi-node triage cluster.  Scaling: the same corpus       *)
(* sharded across 1, 2, and 3 TCP node daemons on localhost, wall      *)
(* clock vs single-process batch triage, TSV byte-identity throughout. *)
(* Then the full fault campaign: coordinator SIGKILL + cache resume,   *)
(* node SIGKILL + reschedule, stall partition.  Forks (nodes, killers),*)
(* so it must run before any domains experiment.                       *)
(* ------------------------------------------------------------------ *)
let e17 () =
  section "e17" "triage cluster — multi-node scaling and fault recovery";
  let module C = Res_cluster.Coordinator in
  let module Fleet = Res_faultinject.Fleet in
  Fleet.with_kit "res-e17" @@ fun k ->
  let items = Fleet.corpus ~n_per_bug:6 in
  let next_node = ref 0 in
  let start_node () =
    incr next_node;
    Fleet.fork_node k
      {
        Res_serve.Server.default_config with
        Res_serve.Server.spool_dir =
          Filename.concat k.Fleet.dir (Fmt.str "node%d-spool" !next_node);
        jobs = 2;
        capacity = 16;
      }
  in
  let baseline, t_base =
    time (fun () ->
        Res_parallel.Batch.run ~jobs:2 ~backend:Res_parallel.Pool.Forked items)
  in
  Fmt.pr "corpus: %d dumps; single-process batch triage (-j 2): %.4fs@."
    (List.length items) t_base;
  Fmt.pr "%-10s %-11s %-9s %-9s %s@." "nodes" "wall (s)" "speedup" "retries"
    "tsv";
  List.iter
    (fun n_nodes ->
      let fleet = List.init n_nodes (fun _ -> start_node ()) in
      List.iter (fun (_, a) -> Fleet.node_ready k a) fleet;
      let config =
        { C.default_config with C.nodes = List.map snd fleet; window = 2 }
      in
      let t, tw = time (fun () -> C.run ~config items) in
      Fmt.pr "%-10d %-11.4f %-9s %-9d %s@." n_nodes tw
        (Fmt.str "%.2fx" (t_base /. tw))
        t.C.stats.C.cs_retries
        (if String.equal t.C.tsv baseline.Res_parallel.Batch.tsv then
           "identical"
         else "DIVERGED");
      List.iter
        (fun (pid, _) -> ignore (Fleet.reap k ~signal:Sys.sigterm "node" pid))
        fleet)
    [ 1; 2; 3 ];
  Fmt.pr "@.fault campaign (kills, resume, partition):@.";
  pp_campaign (Res_faultinject.Faultinject.cluster_soak_campaign ());
  Fmt.pr
    "expected shape: every scaling row reads 'identical' (remote protocol \
     overhead bounds speedup on this small corpus); 2/2 campaign runs \
     passed, so every faulted run is byte-identical, with lost = 0@."

(* ------------------------------------------------------------------ *)
(* E19: the concrete reverse-execution fast path (DESIGN.md §14).      *)
(* Statically invertible loop bodies are stepped backward concretely,  *)
(* skipping symbolic execution and the solver; the claim is arbitrary  *)
(* wall-clock/query savings on long executions at byte-identical       *)
(* reports.  Measures the deep backward chain of long-exec-50 with the *)
(* fast path on vs off, the per-workload equivalence campaign, the     *)
(* static invert coverage of every workload, and the per-step cost of  *)
(* a concrete reverse vs a symbolic step.                              *)
(* ------------------------------------------------------------------ *)
let e19 () =
  section "e19" "reverse execution — solver queries saved, reports equal";
  let w = Res_workloads.Workloads.find "long-exec-50" in
  let prog = w.Res_workloads.Truth.w_prog in
  (* Deep chain: enough segments to walk the whole busy loop backward,
     the regime the paper's title claim is about. *)
  let config reverse_exec =
    {
      Res_core.Res.default_config with
      search =
        {
          Res_core.Search.default_config with
          max_segments = 55;
          max_nodes = 10_000;
          reverse_exec;
        };
    }
  in
  let leg reverse_exec =
    Res_solver.Expr.reset_counter_for_tests ();
    let dump = Res_workloads.Truth.coredump w in
    let ctx = Res_core.Backstep.make_ctx prog in
    let q0 = Res_solver.Solver.queries () in
    let outcome, t =
      time (fun () -> Res_core.Res.analyze ~config:(config reverse_exec) ctx dump)
    in
    let a = Res_core.Res.analysis outcome in
    ( Res_core.Report.report_list_to_string ctx (Res_core.Res.analysis outcome),
      t,
      Res_solver.Solver.queries () - q0,
      a )
  in
  let body_off, t_off, q_off, a_off = leg false in
  let body_on, t_on, q_on, a_on = leg true in
  Fmt.pr "deep backward chain, long-exec-50 (55 segments):@.";
  Fmt.pr "%-14s %-11s %-9s %-9s %-10s %s@." "fast path" "wall (s)" "queries"
    "nodes" "reversed" "reports";
  Fmt.pr "%-14s %-11.4f %-9d %-9d %-10d %s@." "off" t_off q_off
    a_off.Res_core.Res.nodes_expanded a_off.Res_core.Res.nodes_reversed
    "baseline";
  Fmt.pr "%-14s %-11.4f %-9d %-9d %-10d %s@." "on" t_on q_on
    a_on.Res_core.Res.nodes_expanded a_on.Res_core.Res.nodes_reversed
    (if String.equal body_on body_off then "identical" else "DIVERGED");
  Fmt.pr "query reduction: %.1fx; wall speedup: %.1fx@."
    (float_of_int q_off /. float_of_int (max 1 q_on))
    (t_off /. t_on);
  (* The depth curve: deepening continues each depth's carry, so nodes
     grow linearly with depth.  The restart column is what deepening cost
     when every depth searched from the coredump again: the sum of
     from-scratch searches at depths 1..d. *)
  Fmt.pr "@.depth curve, long-exec-50 (fast path on):@.";
  Fmt.pr "%-7s %-9s %-11s %s@." "depth" "nodes" "wall (s)" "restart nodes";
  List.iter
    (fun d ->
      let dump = Res_workloads.Truth.coredump w in
      let ctx = Res_core.Backstep.make_ctx prog in
      let c = config true in
      let c = { c with search = { c.search with max_segments = d } } in
      let outcome, t = time (fun () -> Res_core.Res.analyze ~config:c ctx dump) in
      let restart = ref 0 in
      for k = 1 to d do
        let r =
          Res_core.Search.search
            ~config:{ c.search with max_segments = k }
            (Res_core.Backstep.make_ctx prog) dump
        in
        restart := !restart + r.Res_core.Search.stats.Res_core.Search.nodes
      done;
      Fmt.pr "%-7d %-9d %-11.4f %d@." d
        (Res_core.Res.analysis outcome).Res_core.Res.nodes_expanded t !restart)
    [ 10; 20; 40; 55 ];
  (* Per-workload equivalence campaign at the triage config. *)
  Fmt.pr "@.equivalence campaign (triage depth, all workloads):@.";
  let module D = Res_faultinject.Differential in
  let s = Res_faultinject.Faultinject.reverse_equivalence_campaign () in
  Fmt.pr "%-24s %-10s %-14s %-13s %s@." "workload" "reversed" "slice-skipped"
    "queries" "reports";
  List.iter
    (fun r ->
      Fmt.pr "%-24s %-10d %-14d %-13s %s@." r.D.name
        (D.count r "reverse-exec.reversed")
        (D.count r "reverse-exec.slice_skipped")
        (Fmt.str "%d -> %d" (D.count r "queries")
           (D.count r "reverse-exec.queries"))
        (if r.D.equivalent then "identical" else "DIVERGED"))
    s.D.runs;
  Fmt.pr "campaign: %d/%d identical@." s.D.ok s.D.total;
  (* Static coverage: how much of each program the classifier accepts
     for concrete reversal. *)
  Fmt.pr "@.invert coverage (static, all workloads):@.";
  List.iter
    (fun (w : Res_workloads.Truth.t) ->
      let cov = Res_static.Invert.program_coverage w.Res_workloads.Truth.w_prog in
      Fmt.pr "%-24s invertible=%d/%d@." w.Res_workloads.Truth.w_name
        cov.Res_static.Invert.cov_invertible cov.Res_static.Invert.cov_total)
    Res_workloads.Workloads.all;
  (* Per-step microbench: the pure engine cost of reversing the loop
     body concretely, vs the in-situ per-node cost of the two legs. *)
  let block = Res_ir.Prog.block prog ~func:"main" ~label:"loop" in
  let plan =
    match Res_static.Invert.classify block with
    | Res_static.Invert.Invertible p -> p
    | Res_static.Invert.Not_invertible e ->
        Fmt.failwith "long-exec loop body not invertible: %s" e
  in
  let scratch = 4096 in
  let oracle =
    {
      Res_static.Revexec.post_reg =
        (fun r ->
          if r = 0 then Res_static.Revexec.P_val 4
          else Res_static.Revexec.P_free);
      read_post = (fun a -> if a = scratch then Some 8 else None);
      is_mapped = (fun a -> a = scratch);
      global_base =
        (fun g -> if String.equal g "scratch" then Some scratch else None);
      require_target = "loop";
      regs = [ 0; 1; 2; 3; 4; 5 ];
    }
  in
  let iters = 200_000 in
  let (), t_rev =
    time (fun () ->
        for _ = 1 to iters do
          match Res_static.Revexec.run block plan oracle with
          | Res_static.Revexec.Reversed _ -> ()
          | Res_static.Revexec.Infeasible e | Res_static.Revexec.Unknown e ->
              Fmt.failwith "microbench reverse failed: %s" e
        done)
  in
  let per_node t (a : Res_core.Res.analysis) =
    1e6 *. t /. float_of_int (max 1 a.Res_core.Res.nodes_expanded)
  in
  Fmt.pr "@.per-step cost:@.";
  Fmt.pr "%-34s %.3f us@." "concrete reverse (engine only)"
    (1e6 *. t_rev /. float_of_int iters);
  Fmt.pr "%-34s %.3f us@." "fast-path-on per node (in situ)"
    (per_node t_on a_on);
  Fmt.pr "%-34s %.3f us@." "symbolic per node (in situ)"
    (per_node t_off a_off);
  Fmt.pr
    "@.expected shape: >=2x fewer solver queries on the deep chain (the \
     measured runs land near %d -> %d), every report column reads \
     'identical', and a concrete reverse step costs microseconds where a \
     symbolic step costs milliseconds@."
    q_off q_on

(* ------------------------------------------------------------------ *)
(* E20: the time-travel debugger.  On the deepest long-exec-50 suffix, *)
(* reverse and forward walks over the whole timeline re-execute each   *)
(* instruction at most once with the snapshot index (a backward seek   *)
(* keeps the images of the window it replays), and the binary-searched *)
(* transition probe touches O(log n) states where a linear scan        *)
(* evaluates all of them.                                              *)
(* ------------------------------------------------------------------ *)

(* Walks of [state_at] over every position of a fresh session at
   [interval], descending then ascending: the replay work of the first
   walk of each (the index build is not counted) and the per-query wall
   clock of the same walk repeated for at least 0.1 s, as resbench's
   debug_step_us_p50 repeats reverse walks. *)
let e20_walks ctx suffix dump n =
  Fmt.pr "@.walks over positions %d..0 (reverse) and 0..%d (forward):@." n n;
  Fmt.pr "%-6s %-8s %9s %9s %9s %12s@." "index" "walk" "us/query"
    "snapshot" "window" "re-executed";
  let row interval =
    let dbg =
      match Res_core.Debugger.start ~snapshot_every:interval ctx suffix dump with
      | Ok d -> d
      | Error e -> Fmt.failwith "debugger: %s" e
    in
    ignore (Res_core.Debugger.total_steps dbg);
    let reverse () =
      for p = n downto 0 do
        ignore (Res_core.Debugger.state_at dbg p)
      done
    and forward () =
      for p = 0 to n do
        ignore (Res_core.Debugger.state_at dbg p)
      done
    in
    let work walk =
      let a = Res_core.Debugger.stats dbg in
      walk ();
      let b = Res_core.Debugger.stats dbg in
      Res_core.Debugger.
        ( b.snapshot_restores - a.snapshot_restores,
          b.window_restores - a.window_restores,
          b.replayed - a.replayed )
    in
    let per_query walk =
      let reps = ref 0 and t0 = Unix.gettimeofday () in
      while !reps < 3 || Unix.gettimeofday () -. t0 < 0.1 do
        walk ();
        incr reps
      done;
      1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int (!reps * (n + 1))
    in
    let label = if interval = 0 then "off" else string_of_int interval in
    List.iter
      (fun (name, walk) ->
        let snapshot, window, replayed = work walk in
        Fmt.pr "%-6s %-8s %9.3f %9d %9d %12d@." label name
          (per_query walk) snapshot window replayed)
      [ ("reverse", reverse); ("forward", forward) ]
  in
  List.iter row [ 16; 64; 0 ]

let e20 () =
  section "e20" "time-travel debugging — reverse walks and transition probes";
  let w = Res_workloads.Workloads.find "long-exec-50" in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  (* Deep suffix: walk the whole busy loop backward so the timeline is as
     long as the search can make it — the regime reverse debugging is
     for. *)
  let result =
    Res_core.Search.search
      ~config:
        {
          Res_core.Search.default_config with
          max_segments = 55;
          max_nodes = 10_000;
        }
      ctx dump
  in
  let longest_first =
    List.stable_sort
      (fun a b ->
        compare
          (List.length b.Res_core.Suffix.segments)
          (List.length a.Res_core.Suffix.segments))
      result.Res_core.Search.suffixes
  in
  let suffix, dbg =
    match
      Res_core.Debugger.start_first ~snapshot_every:16 ctx longest_first dump
    with
    | Some found -> found
    | None -> Fmt.failwith "no reproducing suffix for long-exec-50"
  in
  let n = Res_core.Debugger.total_steps dbg in
  Fmt.pr "suffix timeline: %d instruction steps (%d segments)@." n
    (List.length suffix.Res_core.Suffix.segments);
  (* Opening a session: the verifying replay plus the index the first
     state query needs, per open, best of 7 batches of 200; and the words
     a batch promotes to the major heap, per open. *)
  let opens = 200 in
  let batch () =
    for _ = 1 to opens do
      match Res_core.Debugger.start ctx suffix dump with
      | Ok d -> ignore (Res_core.Debugger.total_steps d)
      | Error e -> Fmt.failwith "debugger: %s" e
    done
  in
  let open_s = best_of 7 batch in
  Gc.compact ();
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  batch ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  Fmt.pr "session open (Debugger.start + total_steps): %.1f us, %.0f words \
          promoted@."
    (1e6 *. open_s /. float_of_int opens)
    (promoted /. float_of_int opens);
  e20_walks ctx suffix dump n;
  (* Transition watchpoint: binary-searched probes vs a linear scan. *)
  let layout = ctx.Res_core.Backstep.layout in
  let counter =
    try Res_mem.Layout.global_base layout "scratch"
    with Not_found -> Res_mem.Layout.globals_base
  in
  let final = Res_mem.Memory.read dump.Res_vm.Coredump.mem counter in
  let eval st =
    if Res_mem.Memory.read st.Res_vm.Exec.mem counter = final then 1 else 0
  in
  (match Res_core.Debugger.find_transition dbg eval with
  | Some tr ->
      Fmt.pr "@.transition watchpoint ([0x%x] reaches %d):@." counter final;
      Fmt.pr "%-34s %d probes@." "binary search" tr.Res_core.Debugger.tr_probes;
      Fmt.pr "%-34s %d state evaluations@." "linear scan" (n + 1);
      Fmt.pr "%-34s step %d@." "transition found at"
        tr.Res_core.Debugger.tr_pos
  | None -> Fmt.pr "@.transition watchpoint: endpoints agree (no flip)@.");
  Fmt.pr
    "@.expected shape: with the index on, each walk re-executes at most the \
     %d steps of the timeline and a reverse query costs about what a \
     forward one does; with it off, a walk re-executes O(n^2); the \
     transition search probes O(log n) states where the scan evaluates all \
     %d@."
    n (n + 1)

let e21 () =
  section "e21"
    "structured fuzzing — throughput and violations per decode surface";
  let runs = 2_000 and seed = 1 in
  Fmt.pr "%-11s %8s %9s %9s %11s %11s@." "format" "cases" "accepted"
    "rejected" "violations" "execs/sec";
  let total_cases = ref 0 and total_violations = ref 0 in
  List.iter
    (fun name ->
      let r, t =
        time (fun () -> Res_fuzz.Fuzz.run ~only:[ name ] ~seed ~runs ())
      in
      let f = List.hd r.Res_fuzz.Fuzz.r_formats in
      let open Res_fuzz.Fuzz in
      total_cases := !total_cases + f.fr_runs;
      total_violations := !total_violations + List.length f.fr_findings;
      Fmt.pr "%-11s %8d %9d %9d %11d %11.0f@." f.fr_name f.fr_runs
        f.fr_accepted f.fr_rejected
        (List.length f.fr_findings)
        (float_of_int f.fr_runs /. t))
    Res_fuzz.Fuzz.format_names;
  Fmt.pr "%-11s %8d %29d@." "total" !total_cases !total_violations;
  (* reproducibility: the same seed must replay the identical stream *)
  let digest seed =
    List.map
      (fun f -> f.Res_fuzz.Fuzz.fr_digest)
      (Res_fuzz.Fuzz.run ~seed ~runs:200 ()).Res_fuzz.Fuzz.r_formats
  in
  Fmt.pr "@.same-seed digests identical: %b@."
    (List.equal String.equal (digest 7) (digest 7));
  Fmt.pr
    "@.expected shape: zero violations on every surface — each codec \
     refuses damage with a typed error inside its deadline — and \
     same-seed reruns are byte-identical.@."

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e14", e14);
    ("e16", e16);
    ("e17", e17);
    ("e19", e19);
    ("e20", e20);
    ("e21", e21);
    ("a1", a1);
    ("bechamel", bechamel);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with [] | [ _ ] -> None | _ :: rest -> Some rest
  in
  List.iter
    (fun (id, f) ->
      match requested with
      | Some ids when not (List.mem id ids) -> ()
      | _ -> f ())
    experiments;
  Fmt.pr "@.all requested experiments done.@."
