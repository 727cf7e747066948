(* End-to-end integration tests: every workload through the full pipeline
   (run → crash → coredump → synthesize → replay → classify), checked
   against ground truth — the paper's §4 evaluation generalized from 3 to
   13 bugs, plus cross-cutting invariants. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let analyze w =
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let config =
    {
      Res_core.Res.default_config with
      search =
        {
          Res_core.Search.default_config with
          max_segments = 8;
          max_nodes = 30_000;
        };
    }
  in
  (dump, ctx, Res_core.Res.analysis (Res_core.Res.analyze ~config ctx dump))

(* one test per workload: correct root cause, exact deterministic replay *)
let pipeline_cases =
  List.map
    (fun w ->
      Alcotest.test_case w.Res_workloads.Truth.w_name `Slow (fun () ->
          let _dump, _ctx, analysis = analyze w in
          check bool_t "at least one reproduced suffix" true
            (analysis.Res_core.Res.reports <> []);
          (match Res_core.Res.best_cause analysis with
          | Some cause ->
              check bool_t
                (Fmt.str "cause %s matches ground truth %s"
                   (Res_core.Rootcause.signature cause)
                   (Res_workloads.Truth.bug_class_name
                      w.Res_workloads.Truth.w_bug))
                true
                (Res_workloads.Truth.matches w.Res_workloads.Truth.w_bug cause)
          | None -> Alcotest.fail "no root cause");
          (* requirement (5): deterministic replay *)
          let top = List.hd analysis.Res_core.Res.reports in
          check bool_t "suffix replays deterministically" true
            top.Res_core.Res.deterministic;
          check bool_t "replay is byte-exact" true
            top.Res_core.Res.verdict.Res_core.Replay.reproduced))
    Res_workloads.Workloads.all

(* §4: "in all the cases RES was able to identify the correct root cause
   in less than 1 minute" — here: all three concurrency bugs, timed. *)
let test_concurrency_bugs_under_a_minute () =
  let bugs =
    [
      Res_workloads.Counter_race.workload;
      Res_workloads.Workloads.find "lock-order-deadlock";
      Res_workloads.Corpus.same_stack_race |> fun prog ->
      {
        Res_workloads.Truth.w_name = "balance-race";
        w_prog = prog;
        w_bug = Res_workloads.Truth.B_data_race;
        w_crash_config =
          (fun () ->
            {
              (Res_vm.Exec.default_config ()) with
              sched =
                Res_vm.Sched.create (Res_vm.Sched.Fixed [ 0; 1; 2; 1; 2; 0; 0 ]);
            });
        w_description = "";
      };
    ]
  in
  List.iter
    (fun w ->
      let _, _, analysis = analyze w in
      check bool_t
        (Fmt.str "%s under 60s (took %.2fs)" w.Res_workloads.Truth.w_name
           analysis.Res_core.Res.cpu_seconds)
        true
        (analysis.Res_core.Res.cpu_seconds < 60.0);
      match Res_core.Res.best_cause analysis with
      | Some cause ->
          check bool_t "concurrency root cause" true
            (Res_workloads.Truth.matches w.Res_workloads.Truth.w_bug cause)
      | None -> Alcotest.fail "no cause")
    bugs

(* no false positives: reproduced suffixes never classify a clean
   (fully-locked) program's constructs as racy, because the control never
   crashes in the first place; additionally, the racy program's reproduced
   suffixes must name the real racy address only *)
let test_no_false_positive_addresses () =
  let w = Res_workloads.Counter_race.workload in
  let dump, _ctx, analysis = analyze w in
  let layout = Res_mem.Layout.of_prog w.Res_workloads.Truth.w_prog in
  let counter = Res_mem.Layout.global_base layout "counter" in
  ignore dump;
  List.iter
    (fun (r : Res_core.Res.report) ->
      match r.Res_core.Res.root_cause with
      | Some (Res_core.Rootcause.Data_race { addr; _ })
      | Some (Res_core.Rootcause.Atomicity_violation { addr; _ }) ->
          check int_t "racy address is the counter" counter addr
      | _ -> ())
    analysis.Res_core.Res.reports

(* the suffix RES hands the developer touches the relevant state (§3.3) *)
let test_write_read_sets_focus () =
  let w = Res_workloads.Counter_race.workload in
  let _dump, _ctx, analysis = analyze w in
  let layout = Res_mem.Layout.of_prog w.Res_workloads.Truth.w_prog in
  let counter = Res_mem.Layout.global_base layout "counter" in
  let top = List.hd analysis.Res_core.Res.reports in
  let touched =
    Res_core.Suffix.write_set top.Res_core.Res.suffix
    @ Res_core.Suffix.read_set top.Res_core.Res.suffix
  in
  check bool_t "counter in the suffix's read/write set" true
    (List.mem counter touched)

(* E7: the hash construct is crossed by forward re-execution; with
   inlining disabled the walk cannot pass the compute block *)
let test_hash_requires_forward_reexecution () =
  let w = Res_workloads.Hash_construct.workload in
  let dump = Res_workloads.Truth.coredump w in
  let depth_with inline_calls =
    let sym_config = { Res_symex.Symexec.default_config with inline_calls } in
    let ctx = Res_core.Backstep.make_ctx ~sym_config w.Res_workloads.Truth.w_prog in
    let result =
      Res_core.Search.search
        ~config:
          { Res_core.Search.default_config with max_segments = 8; max_suffixes = 4 }
        ctx dump
    in
    List.fold_left
      (fun acc s -> max acc (Res_core.Suffix.length s))
      0 result.Res_core.Search.suffixes
  in
  let with_inline = depth_with true and without = depth_with false in
  check bool_t
    (Fmt.str "inlining reaches deeper (%d > %d)" with_inline without)
    true (with_inline > without)

(* RES vs execution length: suffix synthesis cost is flat in the prefix
   length while the forward baseline's grows (the paper's core claim) *)
let test_res_flat_forward_growing () =
  let res_cost n =
    let w = Res_workloads.Long_exec.workload_n n in
    let dump = Res_workloads.Truth.coredump w in
    let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
    let result =
      Res_core.Search.search
        ~config:
          { Res_core.Search.default_config with max_segments = 3; max_suffixes = 1 }
        ctx dump
    in
    check bool_t (Fmt.str "RES finds a suffix at n=%d" n) true
      (result.Res_core.Search.suffixes <> []);
    result.Res_core.Search.stats.Res_core.Search.nodes
  in
  let fwd_cost n =
    let w = Res_workloads.Long_exec.workload_n n in
    let dump = Res_workloads.Truth.coredump w in
    let r =
      Res_baselines.Forward_synth.synthesize w.Res_workloads.Truth.w_prog dump
    in
    r.Res_baselines.Forward_synth.stats.Res_baselines.Forward_synth.segments_executed
  in
  let r10 = res_cost 10 and r200 = res_cost 200 in
  let f10 = fwd_cost 10 and f200 = fwd_cost 200 in
  check bool_t
    (Fmt.str "RES flat (%d vs %d nodes)" r10 r200)
    true
    (r200 <= r10 * 2);
  check bool_t
    (Fmt.str "forward grows (%d -> %d segments)" f10 f200)
    true
    (f200 > f10 * 5)

(* property: random straight-line programs (arithmetic + global stores +
   an input) that end in a crash must always admit a complete suffix whose
   replay is byte-exact — the reconstruction is sound on the whole
   fragment, not just on the hand-written workloads *)
let gen_random_crash_prog =
  let open QCheck2.Gen in
  let n_regs = 6 in
  let* instrs =
    let gen_instr =
      let* dst = int_range 0 (n_regs - 1) in
      let* choice = int_range 0 3 in
      match choice with
      | 0 ->
          let* v = int_range (-50) 50 in
          return (Res_ir.Instr.Const (dst, v))
      | 1 ->
          let* op =
            oneofl Res_ir.Instr.[ Add; Sub; Mul; And; Or; Xor ]
          in
          let* a = int_range 0 (n_regs - 1) in
          let* b = int_range 0 (n_regs - 1) in
          return (Res_ir.Instr.Binop (op, dst, a, b))
      | 2 ->
          let* a = int_range 0 (n_regs - 1) in
          return (Res_ir.Instr.Mov (dst, a))
      | _ ->
          let* a = int_range 0 (n_regs - 1) in
          return (Res_ir.Instr.Unop (Res_ir.Instr.Neg, dst, a))
    in
    let* n = int_range 2 8 in
    list_repeat n gen_instr
  in
  let* store_reg = int_range 0 (n_regs - 1) in
  let* input_value = int_range 0 100 in
  (* entry: random arithmetic; mid: store a result + read an input;
     fin: always-false assert -> crash *)
  let g_addr = 6 and g2_addr = 7 and zero = 8 in
  let entry =
    Res_ir.Block.v "entry" instrs (Res_ir.Instr.Jmp "mid")
  in
  let mid =
    Res_ir.Block.v "mid"
      [
        Res_ir.Instr.Global_addr (g_addr, "g");
        Res_ir.Instr.Store (g_addr, 0, store_reg);
        Res_ir.Instr.Input (g2_addr, Res_ir.Instr.Net);
        Res_ir.Instr.Global_addr (store_reg, "h");
        Res_ir.Instr.Store (store_reg, 0, g2_addr);
      ]
      (Res_ir.Instr.Jmp "fin")
  in
  let fin =
    Res_ir.Block.v "fin"
      [ Res_ir.Instr.Const (zero, 0); Res_ir.Instr.Assert (zero, "down") ]
      Res_ir.Instr.Halt
  in
  let prog =
    Res_ir.Prog.v
      ~globals:[ { Res_ir.Prog.gname = "g"; gsize = 1 }; { gname = "h"; gsize = 1 } ]
      [ Res_ir.Func.v ~name:"main" ~params:[] ~entry:"entry" [ entry; mid; fin ] ]
  in
  return (prog, input_value)

let prop_random_programs_reconstruct =
  QCheck2.Test.make ~name:"random crash programs reconstruct exactly" ~count:25
    gen_random_crash_prog (fun (prog, input_value) ->
      let config =
        {
          (Res_vm.Exec.default_config ()) with
          oracle = Res_vm.Oracle.scripted [ input_value ];
        }
      in
      match Res_vm.Exec.run_to_coredump ~config prog with
      | None, _ -> QCheck2.Test.fail_report "program did not crash"
      | Some dump, _ -> (
          let ctx = Res_core.Backstep.make_ctx prog in
          let result =
            Res_core.Search.search
              ~config:
                {
                  Res_core.Search.default_config with
                  max_segments = 4;
                  max_suffixes = 4;
                }
              ctx dump
          in
          match
            List.find_opt
              (fun s -> s.Res_core.Suffix.complete)
              result.Res_core.Search.suffixes
          with
          | None -> QCheck2.Test.fail_report "no complete suffix"
          | Some suffix ->
              let v = Res_core.Replay.replay ctx suffix dump in
              v.Res_core.Replay.reproduced))

(* property: deepening one ctx, which continues each depth's carry,
   synthesizes the same suffixes at every depth as a fresh ctx per depth,
   which cannot — compared as the replayed reports render them.  Each
   report also renders the same when three extra replays must agree with
   its single witnessed one. *)
let prop_random_programs_carry_invisible =
  QCheck2.Test.make ~name:"deepening carry is invisible on random programs"
    ~count:25 gen_random_crash_prog (fun (prog, input_value) ->
      let config =
        {
          (Res_vm.Exec.default_config ()) with
          oracle = Res_vm.Oracle.scripted [ input_value ];
        }
      in
      match Res_vm.Exec.run_to_coredump ~config prog with
      | None, _ -> QCheck2.Test.fail_report "program did not crash"
      | Some dump, _ ->
          let render ctx (r : Res_core.Search.result) =
            List.map
              (fun s ->
                let pp config =
                  Res_core.Report.report_to_string ctx
                    (Res_core.Res.report_of ctx config dump s)
                in
                let witnessed = pp Res_core.Res.default_config in
                if
                  witnessed
                  <> pp { Res_core.Res.default_config with determinism_runs = 3 }
                then
                  QCheck2.Test.fail_reportf
                    "witness disagrees with three replays:@.%s" witnessed;
                witnessed)
              r.Res_core.Search.suffixes
          in
          let ctx = Res_core.Backstep.make_ctx prog in
          List.for_all
            (fun d ->
              let config =
                { Res_core.Search.default_config with max_segments = d }
              in
              let fresh = Res_core.Backstep.make_ctx prog in
              render ctx (Res_core.Search.search ~config ctx dump)
              = render fresh (Res_core.Search.search ~config fresh dump))
            [ 1; 2; 3; 4; 5; 6 ])

(* [gen_random_crash_prog], optionally with a second block repeating the
   entry's arithmetic between it and [mid].  The fast path decides a
   repeated block's step from the concrete state the first one recovers,
   so these programs reach the dead-definition skip. *)
let gen_random_crash_prog_repeated =
  let open QCheck2.Gen in
  let* repeat = bool in
  let+ prog, input_value = gen_random_crash_prog in
  if not repeat then (prog, input_value)
  else
    let open Res_ir in
    let f = Prog.func prog "main" in
    let entry = Func.block f "entry" in
    let body = Array.to_list entry.Block.instrs in
    let blocks =
      Block.v "entry" body (Instr.Jmp "again")
      :: Block.v "again" body (Instr.Jmp "mid")
      :: List.tl f.Func.blocks
    in
    ( Prog.v ~globals:prog.Prog.globals
        [ Func.v ~name:"main" ~params:[] ~entry:"entry" blocks ],
      input_value )

(* property: the concrete reverse-execution fast path, dead-definition
   skipping included, changes no report: the search renders the same
   reports with [reverse_exec] on and off.  Each case is a batch of
   programs, at least one of which must skip a dead definition, so the
   skip path runs under the property rather than beside it.  A batch is
   not shrunk: shrinking could trade a divergence for a batch that
   merely skips nothing, and the divergence report names its program. *)
let prop_random_programs_reverse_exec_invisible =
  QCheck2.Test.make ~name:"reverse exec is invisible on random programs"
    ~count:2
    QCheck2.Gen.(no_shrink (list_repeat 100 gen_random_crash_prog_repeated))
    (fun progs ->
      let skipped =
        List.fold_left
          (fun skipped (prog, input_value) ->
            let config =
              {
                (Res_vm.Exec.default_config ()) with
                oracle = Res_vm.Oracle.scripted [ input_value ];
              }
            in
            match Res_vm.Exec.run_to_coredump ~config prog with
            | None, _ -> QCheck2.Test.fail_report "program did not crash"
            | Some dump, _ ->
                let run reverse_exec =
                  let ctx = Res_core.Backstep.make_ctx prog in
                  let r =
                    Res_core.Search.search
                      ~config:
                        {
                          Res_core.Search.default_config with
                          max_segments = 6;
                          reverse_exec;
                        }
                      ctx dump
                  in
                  ( List.map
                      (fun s ->
                        Res_core.Report.report_to_string ctx
                          (Res_core.Res.report_of ctx
                             Res_core.Res.default_config dump s))
                      r.Res_core.Search.suffixes,
                    r.Res_core.Search.stats.Res_core.Search.slice_skipped )
                in
                let on, n = run true and off, _ = run false in
                if on <> off then
                  QCheck2.Test.fail_reportf
                    "reports differ with reverse exec on and off, input \
                     %d:@.%s@.on:@.%s@.off:@.%s"
                    input_value (Res_ir.Prog.to_string prog)
                    (String.concat "\n" on) (String.concat "\n" off);
                skipped + n)
          0 progs
      in
      skipped > 0
      || QCheck2.Test.fail_report "no program skipped a dead definition")

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_programs_reconstruct;
      prop_random_programs_carry_invisible;
      prop_random_programs_reverse_exec_invisible;
    ]

let () =
  Alcotest.run "integration"
    [
      ("pipeline per workload", pipeline_cases);
      ("properties", qcheck_cases);
      ( "paper claims",
        [
          Alcotest.test_case "§4 concurrency bugs < 1 min" `Slow
            test_concurrency_bugs_under_a_minute;
          Alcotest.test_case "racy address precision" `Slow
            test_no_false_positive_addresses;
          Alcotest.test_case "read/write set focus" `Slow
            test_write_read_sets_focus;
          Alcotest.test_case "§6 hash via re-execution" `Slow
            test_hash_requires_forward_reexecution;
          Alcotest.test_case "suffix cost flat in length" `Slow
            test_res_flat_forward_growing;
        ] );
    ]
