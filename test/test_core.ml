(* Unit tests for the RES core: symbolic snapshots, the backward step
   (including Figure 1's predecessor disambiguation), suffix search,
   deterministic replay, and the root-cause detectors. *)

open Res_core

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let fig1 = Res_workloads.Fig1.workload
let fig1_dump () = Res_workloads.Truth.coredump fig1
let fig1_ctx () = Backstep.make_ctx fig1.Res_workloads.Truth.w_prog

(* --- snapshots --- *)

let test_snapshot_of_coredump () =
  let dump = fig1_dump () in
  let snap = Snapshot.of_coredump dump in
  check int_t "no symbolic cells initially" 0 (Snapshot.symbolic_cells snap);
  check int_t "one thread" 1 (List.length (Snapshot.threads snap));
  let layout = Res_mem.Layout.of_prog fig1.Res_workloads.Truth.w_prog in
  let x_addr = Res_mem.Layout.global_base layout "x" in
  (match Snapshot.read_mem snap x_addr with
  | Res_solver.Expr.Const v -> check int_t "x=1 in dump snapshot" 1 v
  | _ -> Alcotest.fail "expected concrete value");
  (* overriding makes the cell symbolic *)
  let s = Res_solver.Expr.fresh "probe" in
  let snap = Snapshot.write_mem_over snap x_addr s in
  check int_t "one symbolic cell" 1 (Snapshot.symbolic_cells snap);
  check bool_t "override visible" true
    (Res_solver.Expr.equal (Snapshot.read_mem snap x_addr) s)

let test_snapshot_concretize () =
  let dump = fig1_dump () in
  let snap = Snapshot.of_coredump dump in
  let layout = Res_mem.Layout.of_prog fig1.Res_workloads.Truth.w_prog in
  let x_addr = Res_mem.Layout.global_base layout "x" in
  let sym = Res_solver.Expr.fresh_sym "v" in
  let snap = Snapshot.write_mem_over snap x_addr (Res_solver.Expr.Sym sym) in
  let model = Res_solver.Model.add sym 42 Res_solver.Model.empty in
  let mem = Snapshot.concrete_mem snap model in
  check int_t "model value materialized" 42 (Res_mem.Memory.read mem x_addr)

(* --- the Figure 1 backward step: predecessor disambiguation --- *)

let test_fig1_pred_disambiguation () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let snap0 = Snapshot.of_coredump dump in
  (* consume the crash segment (merge block) *)
  let r1 =
    Backstep.step_back ctx snap0 ~tid:0
      ~kind:
        (Backstep.K_partial (Some dump.Res_vm.Coredump.crash.Res_vm.Crash.kind))
  in
  check int_t "crash segment applies" 1 (List.length r1.Backstep.applied);
  let snap1 = (List.hd r1.Backstep.applied).Backstep.ap_snapshot in
  (* Pred1 stores x=1 (matches the dump), Pred2 stores x=2 (contradicts) *)
  let pred1 =
    Backstep.step_back ctx snap1 ~tid:0 ~kind:(Backstep.K_full { block = "pred1" })
  in
  let pred2 =
    Backstep.step_back ctx snap1 ~tid:0 ~kind:(Backstep.K_full { block = "pred2" })
  in
  check bool_t "pred1 feasible" true (pred1.Backstep.applied <> []);
  check bool_t "pred2 discarded" true (pred2.Backstep.applied = [])

let test_backstep_rejects_mid_segment_full () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let snap0 = Snapshot.of_coredump dump in
  (* the crashing thread is mid-segment: a full step must be refused *)
  let r =
    Backstep.step_back ctx snap0 ~tid:0 ~kind:(Backstep.K_full { block = "pred1" })
  in
  check bool_t "refused" true (r.Backstep.applied = []);
  check bool_t "with a reason" true (r.Backstep.rejects <> [])

(* --- search --- *)

let test_fig1_complete_search () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let result =
    Search.search
      ~config:
        { Search.default_config with max_segments = 6; max_suffixes = 4 }
      ctx dump
  in
  check bool_t "suffixes found" true (result.Search.suffixes <> []);
  check bool_t "a complete suffix exists" true
    (List.exists (fun s -> s.Suffix.complete) result.Search.suffixes);
  (* every complete suffix goes through pred1, never pred2 *)
  List.iter
    (fun s ->
      if s.Suffix.complete then begin
        let blocks = List.map (fun seg -> seg.Suffix.seg_block) s.Suffix.segments in
        check bool_t "pred1 in suffix" true (List.mem "pred1" blocks);
        check bool_t "pred2 absent" false (List.mem "pred2" blocks)
      end)
    result.Search.suffixes

let test_search_stats_accounting () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let result =
    Search.search
      ~config:{ Search.default_config with max_segments = 3 }
      ctx dump
  in
  let s = result.Search.stats in
  check bool_t "nodes counted" true (s.Search.nodes > 0);
  check bool_t "candidates >= feasible" true (s.Search.candidates >= s.Search.feasible);
  check bool_t "emitted = suffixes" true
    (s.Search.emitted = List.length result.Search.suffixes)

let test_search_budget () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let result =
    Search.search
      ~config:{ Search.default_config with max_segments = 6; max_nodes = 1 }
      ctx dump
  in
  check bool_t "budget flag set" false result.Search.complete

(* --- linear-time deepening: the carry --- *)

(* What a search shows its user: each suffix as its report renders. *)
let rendered ctx dump (r : Search.result) =
  List.map
    (fun s ->
      Report.report_to_string ctx
        (Res.report_of ctx Res.default_config dump s))
    r.Search.suffixes

(* Deepen 1..[depth] on one ctx, which continues each depth's carry, and
   on a fresh ctx per depth, which cannot: every depth must render the
   same suffixes. *)
let assert_carry_invisible ?(max_suffixes = 4) ~depth (w : Res_workloads.Truth.t)
    =
  let dump = Res_workloads.Truth.coredump w in
  let prog = w.Res_workloads.Truth.w_prog in
  let ctx = Backstep.make_ctx prog in
  for d = 1 to depth do
    let config = { Search.default_config with max_segments = d; max_suffixes } in
    let carried = Search.search ~config ctx dump in
    let fresh_ctx = Backstep.make_ctx prog in
    let fresh = Search.search ~config fresh_ctx dump in
    check (Alcotest.list Alcotest.string)
      (Fmt.str "%s depth %d (max_suffixes %d)" w.Res_workloads.Truth.w_name d
         max_suffixes)
      (rendered fresh_ctx dump fresh)
      (rendered ctx dump carried)
  done

let test_carry_invisible_all_workloads () =
  List.iter
    (fun w ->
      assert_carry_invisible ~depth:8 w;
      assert_carry_invisible ~max_suffixes:64 ~depth:8 w)
    Res_workloads.Workloads.all

let long_exec_50 () = Res_workloads.Workloads.find "long-exec-50"

let test_carry_invisible_long_exec () =
  assert_carry_invisible ~depth:55 (long_exec_50 ())

let test_deep_analysis_nodes_linear () =
  let w = long_exec_50 () in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let config =
    {
      Res.default_config with
      search = { Search.default_config with max_segments = 55; max_nodes = 10_000 };
    }
  in
  let a = Res.analysis (Res.analyze ~config ctx (Res_workloads.Truth.coredump w)) in
  check int_t "depth reached" 55 a.Res.depth_reached;
  check bool_t
    (Fmt.str "%d nodes for 55 segments" a.Res.nodes_expanded)
    true
    (a.Res.nodes_expanded <= 110)

let test_carry_belongs_to_one_ctx () =
  let w = long_exec_50 () in
  let prog = w.Res_workloads.Truth.w_prog in
  let dump = Res_workloads.Truth.coredump w in
  let nodes ?snapshot0 ?(max_suffixes = 4) ctx d =
    let config = { Search.default_config with max_segments = d; max_suffixes } in
    (Search.search ?snapshot0 ~config ctx dump).Search.stats.Search.nodes
  in
  let scratch d = nodes (Backstep.make_ctx prog) d in
  (* Deepening one ctx expands every node once: its per-depth counts add
     up to one search from the coredump. *)
  let a = Backstep.make_ctx prog in
  let total = ref 0 in
  for d = 1 to 12 do
    total := !total + nodes a d
  done;
  check int_t "per-depth nodes sum to one search" (scratch 12) !total;
  (* A second ctx over the same dump sees none of [a]'s carry, and
     leaves [a]'s in place. *)
  let b = Backstep.make_ctx prog in
  check int_t "other ctx starts from the coredump" (scratch 13) (nodes b 13);
  check bool_t "own ctx continues" true (nodes a 13 < scratch 13);
  (* The copies with_interrupt makes share the cell. *)
  let a' = Backstep.with_interrupt a (fun () -> false) in
  check bool_t "interrupt copy continues" true (nodes a' 14 < scratch 14);
  check bool_t "and hands the carry back" true (nodes a 15 < scratch 15);
  (* Any other call starts from the coredump. *)
  check int_t "depth skipped" (scratch 17) (nodes a 17);
  check int_t "config changed" (scratch 18) (nodes ~max_suffixes:5 a 18);
  let copy =
    match
      Res_vm.Coredump_io.of_string_result (Res_vm.Coredump_io.to_string dump)
    with
    | Ok { Res_vm.Coredump_io.dump; _ } -> dump
    | Error _ -> Alcotest.fail "dump round-trip"
  in
  check int_t "equal but distinct dump" (scratch 19)
    (Search.search
       ~config:{ Search.default_config with max_segments = 19 }
       a copy)
      .Search.stats.Search.nodes;
  let snapshot0 = Snapshot.of_coredump dump in
  check int_t "snapshot override" (scratch 20) (nodes ~snapshot0 a 20);
  check int_t "an override leaves no carry" (scratch 21) (nodes a 21)

(* --- address-pool ablation --- *)

let test_addr_pool_ablation () =
  let w = Res_workloads.Counter_race.workload in
  let dump = Res_workloads.Truth.coredump w in
  let max_len use_addr_pool =
    let ctx = Backstep.make_ctx ~use_addr_pool w.Res_workloads.Truth.w_prog in
    let result =
      Search.search
        ~config:{ Search.default_config with max_segments = 8; max_suffixes = 8 }
        ctx dump
    in
    List.fold_left (fun acc s -> max acc (Suffix.length s)) 0
      result.Search.suffixes
  in
  let with_pool = max_len true and without = max_len false in
  check bool_t
    (Fmt.str "pool unlocks deeper suffixes (%d > %d)" with_pool without)
    true (with_pool > without)

(* --- minidump ablation --- *)

let test_minidump_keeps_both_predecessors () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let preds_kept snapshot0 =
    let result =
      Search.search
        ~config:{ Search.default_config with max_segments = 6; max_suffixes = 8 }
        ?snapshot0 ctx dump
    in
    List.concat_map
      (fun s ->
        if not s.Suffix.complete then []
        else
          List.filter
            (fun b -> b = "pred1" || b = "pred2")
            (List.map (fun seg -> seg.Suffix.seg_block) s.Suffix.segments))
      result.Search.suffixes
    |> List.sort_uniq compare
  in
  check (Alcotest.list Alcotest.string) "full dump disambiguates" [ "pred1" ]
    (preds_kept None);
  check (Alcotest.list Alcotest.string) "minidump cannot refute pred2"
    [ "pred1"; "pred2" ]
    (preds_kept
       (Some (Snapshot.of_minidump dump ~layout:ctx.Backstep.layout)))

(* --- breadcrumbs (LBR pruning) --- *)

let test_lbr_prunes_candidates () =
  let w = Res_workloads.Long_exec.workload_n 8 in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let run ~crumbs =
    let result =
      Search.search
        ~config:
          {
            Search.default_config with
            max_segments = 5;
            max_suffixes = 16;
            use_breadcrumbs = crumbs;
          }
        ctx dump
    in
    result.Search.stats.Search.candidates
  in
  let without = run ~crumbs:false and with_lbr = run ~crumbs:true in
  check bool_t
    (Fmt.str "LBR prunes candidates (%d -> %d)" without with_lbr)
    true (with_lbr <= without)

(* --- replay --- *)

let test_replay_exact_and_deterministic () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let result =
    Search.search
      ~config:{ Search.default_config with max_segments = 6 }
      ctx dump
  in
  let suffix =
    match List.find_opt (fun s -> s.Suffix.complete) result.Search.suffixes with
    | Some s -> s
    | None -> List.hd result.Search.suffixes
  in
  let ok, verdicts = Replay.replay_deterministically ~times:5 ctx suffix dump in
  check bool_t "5/5 deterministic reproductions" true ok;
  check int_t "five verdicts" 5 (List.length verdicts);
  let first = List.hd verdicts in
  List.iter
    (fun (v : Replay.verdict) ->
      check bool_t "trace non-empty" true (v.Replay.trace <> []);
      check bool_t "scripts consumed exactly" true v.Replay.pinned;
      check bool_t "agrees with the first run" true (Replay.agree first v))
    verdicts

(* Every suffix a search emits for [w], with the workload's dump and ctx. *)
let searched_suffixes (w : Res_workloads.Truth.t) =
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let r =
    Search.search ~config:{ Search.default_config with max_segments = 6 } ctx dump
  in
  (ctx, dump, r.Search.suffixes)

(* The single witnessed replay decides [deterministic] exactly as five
   agreeing replays do. *)
let test_witness_agrees_with_replays () =
  List.iter
    (fun (w : Res_workloads.Truth.t) ->
      let ctx, dump, suffixes = searched_suffixes w in
      check bool_t "suffixes exist" true (suffixes <> []);
      List.iter
        (fun s ->
          let r = Res.report_of ctx Res.default_config dump s in
          check bool_t
            (Fmt.str "%s: witness = 5 replays" w.Res_workloads.Truth.w_name)
            (fst (Replay.replay_deterministically ~times:5 ctx s dump))
            r.Res.deterministic)
        suffixes)
    [ fig1; Res_workloads.Counter_race.workload ]

let first_reproduced ctx dump suffixes =
  List.find
    (fun s -> (Replay.replay ctx s dump).Replay.reproduced)
    suffixes

(* A scripted input nobody reads still reproduces, but is not pinned. *)
let test_witness_unread_input () =
  let ctx, dump, suffixes = searched_suffixes fig1 in
  let s = first_reproduced ctx dump suffixes in
  let extra =
    match List.rev s.Suffix.segments with
    | last :: rest ->
        let unread = (Res_ir.Instr.Net, Res_solver.Expr.fresh_sym "unread") in
        let last =
          { last with Suffix.seg_inputs = last.Suffix.seg_inputs @ [ unread ] }
        in
        { s with Suffix.segments = List.rev (last :: rest) }
    | [] -> Alcotest.fail "empty suffix"
  in
  let r = Res.report_of ctx Res.default_config dump extra in
  check bool_t "still reproduces" true r.Res.verdict.Replay.reproduced;
  check bool_t "not pinned" false r.Res.verdict.Replay.pinned;
  check bool_t "not deterministic" false r.Res.deterministic

(* A scripted tid the replay did not pick breaks the witness. *)
let test_witness_rewritten_schedule () =
  let ctx, dump, suffixes =
    searched_suffixes Res_workloads.Counter_race.workload
  in
  let s = first_reproduced ctx dump suffixes in
  let rewritten =
    match s.Suffix.segments with
    | seg :: rest ->
        {
          s with
          Suffix.segments =
            { seg with Suffix.seg_tid = seg.Suffix.seg_tid + 1 } :: rest;
        }
    | [] -> Alcotest.fail "empty suffix"
  in
  check bool_t "script changed" true
    (Suffix.schedule rewritten <> Suffix.schedule s);
  let r = Res.report_of ctx Res.default_config dump rewritten in
  check bool_t "still reproduces" true r.Res.verdict.Replay.reproduced;
  check bool_t "not pinned" false r.Res.verdict.Replay.pinned;
  check bool_t "not deterministic" false r.Res.deterministic

let test_replay_detects_tampered_suffix () =
  (* corrupting the model must break exact reproduction *)
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let result =
    Search.search
      ~config:{ Search.default_config with max_segments = 6 }
      ctx dump
  in
  let suffix =
    List.find (fun s -> s.Suffix.complete) result.Search.suffixes
  in
  (* smash every model binding *)
  let bad_model =
    List.fold_left
      (fun m (id, _) -> Res_solver.Model.add { Res_solver.Expr.id; name = "" } 99991 m)
      suffix.Suffix.model
      (Res_solver.Model.bindings suffix.Suffix.model)
  in
  let bad = { suffix with Suffix.model = bad_model } in
  let v = Replay.replay ctx bad dump in
  check bool_t "tampered replay rejected" false v.Replay.reproduced

(* --- handing a replay off to the suffix it extends --- *)

(* [got] is [want], the reference {!Replay.replay} verdict, field by
   field. *)
let same_verdict label (want : Replay.verdict) (got : Replay.verdict) =
  let field f = label ^ ": " ^ f in
  check bool_t (field "reproduced") want.Replay.reproduced got.Replay.reproduced;
  check bool_t (field "replay_crash") true
    (want.Replay.replay_crash = got.Replay.replay_crash);
  check
    Alcotest.(option string)
    (field "divergence") want.Replay.divergence got.Replay.divergence;
  check bool_t (field "pinned") want.Replay.pinned got.Replay.pinned;
  check bool_t (field "trace") true (want.Replay.trace = got.Replay.trace);
  match (want.Replay.replay_dump, got.Replay.replay_dump) with
  | Some w, Some g ->
      check bool_t (field "same_failure_state") true
        (Res_vm.Coredump.same_failure_state w g);
      check int_t (field "steps") w.Res_vm.Coredump.steps g.Res_vm.Coredump.steps;
      check bool_t (field "tracer") true
        (w.Res_vm.Coredump.tracer = g.Res_vm.Coredump.tracer)
  | None, None -> ()
  | _ -> Alcotest.fail (field "replay_dump present on one side only")

(* Every report of [Res.analyze], whose replays are handed off along the
   deepening, carries the verdict a fresh replay of its suffix gives. *)
let test_handoff_reports_match_reference () =
  let reports ~depth (w : Res_workloads.Truth.t) =
    let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
    let dump = Res_workloads.Truth.coredump w in
    let config =
      {
        Res.default_config with
        search = { Search.default_config with max_segments = depth };
      }
    in
    List.iteri
      (fun i (r : Res.report) ->
        same_verdict
          (Fmt.str "%s depth %d report %d" w.Res_workloads.Truth.w_name depth i)
          (Replay.replay ctx r.Res.suffix dump)
          r.Res.verdict)
      (Res.analysis (Res.analyze ~config ctx dump)).Res.reports
  in
  List.iter
    (fun w -> List.iter (fun depth -> reports ~depth w) [ 6; 8; 12 ])
    Res_workloads.Workloads.all;
  reports ~depth:55 (long_exec_50 ())

(* Deepening [w] to [depth] on one context as [Res.run] does, every
   suffix each depth emits through one chain: its verdicts, reproduced or
   not, against fresh replays, and the number of handoffs. *)
let chain_every_suffix ~depth (w : Res_workloads.Truth.t) =
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let dump = Res_workloads.Truth.coredump w in
  let chain = Replay.Chain.create () in
  let seen = ref [] in
  for d = 1 to depth do
    let r =
      Search.search ~config:{ Search.default_config with max_segments = d } ctx dump
    in
    List.iter
      (fun s ->
        if not (List.memq s !seen) then begin
          seen := s :: !seen;
          same_verdict
            (Fmt.str "%s depth %d, %d segments" w.Res_workloads.Truth.w_name d
               (Suffix.length s))
            (Replay.replay ctx s dump)
            (Replay.Chain.replay chain ctx s dump)
        end)
      r.Search.suffixes
  done;
  (List.length !seen, Replay.Chain.handoffs chain)

let test_handoff_every_suffix () =
  List.iter
    (fun w -> ignore (chain_every_suffix ~depth:12 w))
    Res_workloads.Workloads.all;
  (* Every suffix but the first extends one replayed before it. *)
  let suffixes, handoffs = chain_every_suffix ~depth:55 (long_exec_50 ()) in
  check int_t "long-exec-50 to depth 55: handoffs" (suffixes - 1) handoffs

(* Suffixes [k] and [k+1] of long-exec-50's deepening, the latter one
   segment in front of the former, with the context and dump. *)
let extending_pair () =
  let w = long_exec_50 () in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let dump = Res_workloads.Truth.coredump w in
  let at d =
    List.hd
      (Search.search ~config:{ Search.default_config with max_segments = d } ctx dump)
        .Search.suffixes
  in
  let short = at 5 in
  let long = at 6 in
  check bool_t "the deeper suffix extends the shorter" true
    (List.tl long.Suffix.segments == short.Suffix.segments);
  (ctx, dump, short, long)

(* [prev]'s step-0 thread 0, its root frame's register [r] set to [v]. *)
let with_reg (prev : Replay.run) r v =
  let im = prev.Replay.r_start in
  let th = Replay.IMap.find 0 im.Replay.im_threads in
  let th =
    Res_vm.Thread.with_top th (Res_vm.Frame.write_reg (Res_vm.Thread.top th) r v)
  in
  {
    prev with
    Replay.r_start =
      { im with Replay.im_threads = Replay.IMap.add 0 th im.Replay.im_threads };
  }

(* A record that differs from the shorter suffix's run in anything the
   rest of the run observes falls back to a full replay, whose verdict is
   the reference one; one that differs only in a register the run
   overwrites unread is handed off. *)
let test_handoff_misses () =
  let ctx, dump, short, long = extending_pair () in
  let want = Replay.replay ctx long dump in
  let prev = Replay.record ctx short dump in
  let try_with label prev ~handed_off =
    let r = Replay.extend ctx long dump prev in
    check bool_t (label ^ ": handed off") handed_off r.Replay.r_handed_off;
    same_verdict label want r.Replay.r_verdict
  in
  try_with "unaltered" prev ~handed_off:true;
  let im = prev.Replay.r_start in
  let scratch =
    Res_mem.Layout.global_base ctx.Backstep.layout "scratch"
  in
  try_with "one memory cell"
    {
      prev with
      Replay.r_start =
        {
          im with
          Replay.im_mem =
            Res_mem.Memory.write im.Replay.im_mem scratch
              (Res_mem.Memory.read im.Replay.im_mem scratch + 1);
        };
    }
    ~handed_off:false;
  (* The loop block reads r0 before writing it, and writes r1..r5 first. *)
  let frame = Res_vm.Thread.top (Replay.IMap.find 0 im.Replay.im_threads) in
  check Alcotest.string "thread 0 at the loop" "loop" frame.Res_vm.Frame.block;
  let live = Res_vm.Frame.read_reg frame 0 + 1 in
  try_with "a live register" (with_reg prev 0 live) ~handed_off:false;
  (* The cursor of a script one pick shorter than the shorter suffix's. *)
  let cursor =
    Res_vm.Sched.cursor
      (Res_vm.Sched.create (Res_vm.Sched.Fixed (List.tl (Suffix.schedule short))))
  in
  try_with "the scheduler cursor"
    { prev with Replay.r_start = { im with Replay.im_sched = cursor } }
    ~handed_off:false;
  try_with "a step count past max_steps"
    { prev with Replay.r_steps = Replay.default_max_steps }
    ~handed_off:false;
  let dead = Res_vm.Frame.read_reg frame 4 + 7 in
  try_with "a dead register" (with_reg prev 4 dead) ~handed_off:true;
  (* r4 is dead only while the run is seen writing it (loop:3). *)
  let unseen = with_reg prev 4 dead in
  let v = unseen.Replay.r_verdict in
  let trace =
    List.filter
      (fun (e : Res_vm.Event.t) ->
        not
          (e.Res_vm.Event.pc.Res_ir.Pc.block = "loop"
          && e.Res_vm.Event.pc.Res_ir.Pc.idx = 3))
      v.Replay.trace
  in
  check bool_t "loop:3 was in the trace" true
    (List.length trace < List.length v.Replay.trace);
  try_with "a dead register whose write is not in the trace"
    { unseen with Replay.r_verdict = { v with Replay.trace } }
    ~handed_off:false

(* --- suffix accessors --- *)

let test_suffix_accessors () =
  let dump = fig1_dump () in
  let ctx = fig1_ctx () in
  let result =
    Search.search
      ~config:{ Search.default_config with max_segments = 6 }
      ctx dump
  in
  let s = List.find (fun s -> s.Suffix.complete) result.Search.suffixes in
  check int_t "schedule length = segments" (Suffix.length s)
    (List.length (Suffix.schedule s));
  check int_t "two inputs consumed" 2 (List.length (Suffix.input_script s));
  check bool_t "write set non-empty" true (Suffix.write_set s <> []);
  check bool_t "steps counted" true (Suffix.length_steps s > 0)

(* --- root-cause detectors on hand-built traces --- *)

let mk_event step tid func block idx action =
  {
    Res_vm.Event.step;
    tid;
    pc = Res_ir.Pc.v ~func ~block ~idx;
    action;
  }

let test_find_races_positive () =
  (* two unsynchronized writes to the same address by different threads *)
  let trace =
    [
      mk_event 0 1 "w" "b" 0 (Res_vm.Event.A_write { addr = 100; value = 1; old = 0 });
      mk_event 1 2 "w" "b" 0 (Res_vm.Event.A_write { addr = 100; value = 2; old = 1 });
    ]
  in
  check bool_t "race found" true (Rootcause.find_races trace <> []);
  (* the same writes by one thread do not race: [Rootcause.classify] skips
     the detectors on a one-thread trace *)
  let one_thread = List.map (fun (e : Res_vm.Event.t) -> { e with tid = 1 }) trace in
  check bool_t "no race in one thread" true (Rootcause.find_races one_thread = [])

let test_find_races_lock_ordered () =
  (* same accesses, but ordered by unlock -> lock: no race *)
  let trace =
    [
      mk_event 0 1 "w" "b" 0 (Res_vm.Event.A_lock { addr = 5 });
      mk_event 1 1 "w" "b" 1 (Res_vm.Event.A_write { addr = 100; value = 1; old = 0 });
      mk_event 2 1 "w" "b" 2 (Res_vm.Event.A_unlock { addr = 5 });
      mk_event 3 2 "w" "b" 0 (Res_vm.Event.A_lock { addr = 5 });
      mk_event 4 2 "w" "b" 1 (Res_vm.Event.A_write { addr = 100; value = 2; old = 1 });
      mk_event 5 2 "w" "b" 2 (Res_vm.Event.A_unlock { addr = 5 });
    ]
  in
  check bool_t "no race under lock ordering" true (Rootcause.find_races trace = [])

let test_find_races_join_ordered () =
  let trace =
    [
      mk_event 0 1 "w" "b" 0 (Res_vm.Event.A_write { addr = 100; value = 1; old = 0 });
      mk_event 1 1 "w" "b" 1 Res_vm.Event.A_halt;
      mk_event 2 0 "m" "b" 0 (Res_vm.Event.A_join { joined = 1 });
      mk_event 3 0 "m" "b" 1 (Res_vm.Event.A_read { addr = 100; value = 1 });
    ]
  in
  check bool_t "no race across join" true (Rootcause.find_races trace = [])

let test_find_atomicity_violation () =
  (* t1 reads, t2 writes, t1 writes: the lost update *)
  let trace =
    [
      mk_event 0 1 "w" "a" 0 (Res_vm.Event.A_read { addr = 7; value = 0 });
      mk_event 1 2 "w" "a" 0 (Res_vm.Event.A_write { addr = 7; value = 5; old = 0 });
      mk_event 2 1 "w" "b" 0 (Res_vm.Event.A_write { addr = 7; value = 1; old = 5 });
    ]
  in
  check bool_t "violation found" true (Rootcause.find_atomicity_violations trace <> []);
  (* without the intervening write there is none *)
  let clean =
    [
      mk_event 0 1 "w" "a" 0 (Res_vm.Event.A_read { addr = 7; value = 0 });
      mk_event 2 1 "w" "b" 0 (Res_vm.Event.A_write { addr = 7; value = 1; old = 0 });
    ]
  in
  check bool_t "no violation" true (Rootcause.find_atomicity_violations clean = []);
  (* nor when the one thread makes the intervening write itself *)
  let one_thread = List.map (fun (e : Res_vm.Event.t) -> { e with tid = 1 }) trace in
  check bool_t "no violation in one thread" true
    (Rootcause.find_atomicity_violations one_thread = [])

let test_signature_stability () =
  (* the same defect reported via race or atomicity keys identically *)
  let pc = Res_ir.Pc.v ~func:"w" ~block:"b" ~idx:0 in
  let race =
    Rootcause.Data_race
      { addr = 100; access1 = (pc, 1, true); access2 = (pc, 2, false) }
  in
  let atomicity =
    Rootcause.Atomicity_violation
      { addr = 100; read_pc = pc; intervening_pc = pc; write_pc = pc; tids = (1, 2) }
  in
  check Alcotest.string "keys agree" (Rootcause.signature race)
    (Rootcause.signature atomicity)

(* --- debugger --- *)

let race_session () =
  (* use a *complete* suffix so the workers' reads are inside the window *)
  let w = Res_workloads.Counter_race.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let result =
    Search.search
      ~config:
        { Search.default_config with max_segments = 8; max_suffixes = 8 }
      ctx dump
  in
  let suffix =
    match List.find_opt (fun s -> s.Suffix.complete) result.Search.suffixes with
    | Some s -> s
    | None -> List.hd result.Search.suffixes
  in
  match Debugger.start ctx suffix dump with
  | Ok dbg -> (w, dump, dbg)
  | Error msg -> Alcotest.fail msg

let test_debugger_basics () =
  let w, dump, dbg = race_session () in
  ignore dump;
  check bool_t "non-empty listing" true (Debugger.trace dbg <> []);
  let layout = Res_mem.Layout.of_prog w.Res_workloads.Truth.w_prog in
  let counter = Res_mem.Layout.global_base layout "counter" in
  (* final memory state seen by the debugger equals the coredump *)
  check int_t "counter at crash" 1
    (Debugger.mem_at dbg (Debugger.total_steps dbg) counter);
  (* a breakpoint on the instruction loading the counter for the failing
     assert stops just before the load, with the counter already lost *)
  let load_pc = Res_ir.Pc.v ~func:"main" ~block:"check" ~idx:1 in
  (match Debugger.break_at dbg load_pc with
  | Some p ->
      check int_t "counter already corrupted at the load" 1
        (Debugger.mem_at dbg p counter)
  | None -> Alcotest.fail "load pc not found");
  (* write history of the counter is non-empty *)
  check bool_t "counter written in suffix" true
    (Debugger.writes_to dbg counter <> [])

let test_debugger_hypothesis () =
  let w, _dump, dbg = race_session () in
  let layout = Res_mem.Layout.of_prog w.Res_workloads.Truth.w_prog in
  let counter = Res_mem.Layout.global_base layout "counter" in
  (* in every reproduced racy suffix, some updating worker was preempted
     between its read and its write *)
  let preempted tid =
    match Debugger.preempted_before_update dbg ~tid ~addr:counter with
    | Some b -> b
    | None -> false
  in
  check bool_t "a worker was preempted mid-update" true
    (preempted 1 || preempted 2)

let test_debugger_rejects_bad_suffix () =
  let w = Res_workloads.Counter_race.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let result =
    Search.search ~config:{ Search.default_config with max_segments = 2 } ctx dump
  in
  let suffix = List.hd result.Search.suffixes in
  let bad_model =
    List.fold_left
      (fun m (id, _) ->
        Res_solver.Model.add { Res_solver.Expr.id; name = "" } 77777 m)
      suffix.Suffix.model
      (Res_solver.Model.bindings suffix.Suffix.model)
  in
  match Debugger.start ctx { suffix with Suffix.model = bad_model } dump with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "session opened on a non-reproducing suffix"

(* --- error-log breadcrumbs --- *)

let logged_src =
  {|
global x 1
func main() {
entry:
  r0 = input net
  r1 = global x
  store r1[0] = r0
  log "x", r0
  jmp check
check:
  r2 = global x
  r3 = load r2[0]
  r4 = const 7
  r5 = eq r3, r4
  assert r5, "x is lucky"
  halt
}
|}

let test_log_breadcrumbs_bind_values () =
  (* the input value 9 is only recoverable from the log entry *)
  let prog = Res_ir.Validate.check_exn (Res_ir.Parser.parse logged_src) in
  let config =
    {
      (Res_vm.Exec.default_config ()) with
      oracle = Res_vm.Oracle.scripted [ 9 ];
    }
  in
  let dump =
    match Res_vm.Exec.run_to_coredump ~config prog with
    | Some d, _ -> d
    | None, _ -> Alcotest.fail "expected crash"
  in
  let ctx = Backstep.make_ctx prog in
  let search crumbs =
    Search.search
      ~config:
        { Search.default_config with max_segments = 4; use_breadcrumbs = crumbs }
      ctx dump
  in
  let with_crumbs = search true in
  check bool_t "suffix found with log crumbs" true
    (with_crumbs.Search.suffixes <> []);
  (* the input in the replayed suffix must be the logged 9 *)
  let s =
    List.find (fun s -> s.Suffix.complete) with_crumbs.Search.suffixes
  in
  check (Alcotest.list int_t) "input pinned by the log" [ 9 ]
    (Suffix.input_script s)

(* The crash block logs its input before dividing by zero; the crash step
   is the in-progress segment of [work]. *)
let crash_logged_src =
  {|
func main() {
entry:
  r0 = input net
  jmp work
work:
  r1 = input net
  log "x", r1
  r2 = const 0
  r3 = div r1, r2
  halt
}
|}

let test_log_breadcrumbs_check_crash_step () =
  (* an error log that contradicts the value the crash block logs leaves
     the crash step without a child: nothing further is expanded *)
  let prog = Res_ir.Validate.check_exn (Res_ir.Parser.parse crash_logged_src) in
  let config =
    {
      (Res_vm.Exec.default_config ()) with
      oracle = Res_vm.Oracle.scripted [ 1; 9 ];
    }
  in
  let dump =
    match Res_vm.Exec.run_to_coredump ~config prog with
    | Some d, _ -> d
    | None, _ -> Alcotest.fail "expected crash"
  in
  let tracer = dump.Res_vm.Coredump.tracer in
  let tampered =
    {
      dump with
      Res_vm.Coredump.tracer =
        {
          tracer with
          Res_vm.Tracer.logs =
            List.map
              (fun (e : Res_vm.Tracer.log_entry) ->
                { e with log_value = e.log_value + 1 })
              tracer.Res_vm.Tracer.logs;
        };
    }
  in
  check int_t "one logged value" 1
    (List.length (Res_vm.Tracer.logs tracer));
  let search dump =
    Search.search
      ~config:
        { Search.default_config with max_segments = 2; use_breadcrumbs = true }
      (Backstep.make_ctx prog) dump
  in
  let honest = search dump in
  check bool_t "the honest log reproduces" true
    (honest.Search.suffixes <> []);
  let r = search tampered in
  check int_t "only the crash step evaluated" 1 r.Search.stats.Search.nodes;
  check int_t "no suffix" 0 (List.length r.Search.suffixes)

let test_log_breadcrumbs_prune_contradictions () =
  (* consume_logs rejects a segment whose emission contradicts the log *)
  let entry v = { Res_vm.Tracer.log_tid = 0; log_tag = "t"; log_value = v } in
  let e = Res_solver.Expr.fresh "v" in
  (match Search.consume_logs ~tid:0 [ ("t", e) ] [ entry 5 ] with
  | Some ([ c ], []) -> (
      match Res_solver.Solver.solve [ c ] with
      | Res_solver.Solver.Sat m ->
          check int_t "value bound to 5" 5 (Res_solver.Model.eval m e)
      | _ -> Alcotest.fail "expected sat")
  | _ -> Alcotest.fail "expected one constraint");
  (* wrong tag: pruned *)
  (match Search.consume_logs ~tid:0 [ ("other", e) ] [ entry 5 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "tag mismatch not pruned");
  (* wrong tid: pruned *)
  (match Search.consume_logs ~tid:1 [ ("t", e) ] [ entry 5 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "tid mismatch not pruned");
  (* segment logs with an exhausted dump log: pruned *)
  match Search.consume_logs ~tid:0 [ ("t", e) ] [] with
  | None -> ()
  | Some _ -> Alcotest.fail "exhausted log not pruned"

(* --- analyze (end-to-end driver) --- *)

let test_analyze_counter_race () =
  let w = Res_workloads.Counter_race.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let analysis = Res.analysis (Res.analyze ctx dump) in
  check bool_t "reports exist" true (analysis.Res.reports <> []);
  match Res.best_cause analysis with
  | Some (Rootcause.Data_race _ | Rootcause.Atomicity_violation _) -> ()
  | Some c -> Alcotest.failf "wrong cause: %s" (Rootcause.signature c)
  | None -> Alcotest.fail "no cause"

let test_analyze_cpu_time_bounded () =
  (* §4: root cause in under a minute — ours are milliseconds, assert < 10s *)
  let w = Res_workloads.Counter_race.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let analysis = Res.analysis (Res.analyze ctx dump) in
  check bool_t "well under a minute" true (analysis.Res.cpu_seconds < 10.0)

(* The witnessed single replay renders every report body exactly as three
   extra agreeing replays do: on every workload at the CLI's default
   depth, and on long-exec-50 at the deepening depths. *)
let test_witness_default_differential () =
  let bodies ~depth ~runs (w : Res_workloads.Truth.t) =
    let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
    let config =
      {
        Res.default_config with
        search =
          { Search.default_config with max_segments = depth; max_nodes = 30_000 };
        determinism_runs = runs;
      }
    in
    let o = Res.analyze ~config ctx (Res_workloads.Truth.coredump w) in
    Res.outcome_name o ^ "\n" ^ Report.report_list_to_string ctx (Res.analysis o)
  in
  let same ~depth w =
    check Alcotest.string
      (Fmt.str "%s depth %d" w.Res_workloads.Truth.w_name depth)
      (bodies ~depth ~runs:3 w)
      (bodies ~depth ~runs:Res.default_config.determinism_runs w)
  in
  List.iter (same ~depth:8) Res_workloads.Workloads.all;
  List.iter (fun depth -> same ~depth (long_exec_50 ())) [ 10; 20; 40; 55 ]

(* A deeper search re-emits an earlier depth's dead-end suffix as the
   physically same value; the analysis replays it once, so both reports of
   it are one report.  Each of these workloads repeats a suffix at depth 8. *)
let test_repeated_suffix_reported_once () =
  List.iter
    (fun name ->
      let w = Res_workloads.Workloads.find name in
      let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
      let config =
        {
          Res.default_config with
          search = { Search.default_config with max_segments = 8 };
        }
      in
      let reports =
        (Res.analysis
           (Res.analyze ~config ctx (Res_workloads.Truth.coredump w)))
          .Res.reports
      in
      let rec pairs = function
        | [] -> []
        | (a : Res.report) :: rest ->
            List.filter_map
              (fun (b : Res.report) ->
                if a.suffix == b.suffix then Some (a, b) else None)
              rest
            @ pairs rest
      in
      let pairs = pairs reports in
      check bool_t (name ^ ": a suffix is reported twice") true (pairs <> []);
      let same = List.for_all (fun (a, b) -> a == b) pairs in
      check bool_t (name ^ ": one report per suffix") true same)
    [ "div-by-zero"; "semantic-discount"; "hash-construct" ]

(* Two reports that tie on score and suffix length are ordered by their
   rendered text, whichever order the analysis lists them in.  They differ
   only in the determinism flag, so only the text tells them apart. *)
let test_display_sort_ties_by_text () =
  let w = Res_workloads.Div_zero.workload in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let a = Res.analysis (Res.analyze ctx (Res_workloads.Truth.coredump w)) in
  let r = List.hd a.Res.reports in
  let r' = { r with Res.deterministic = not r.Res.deterministic } in
  let text x = Report.report_to_string ctx x in
  check bool_t "texts differ" false (String.equal (text r) (text r'));
  let expected = List.sort String.compare [ text r; text r' ] in
  List.iter
    (fun reports ->
      let sorted = Report.display_sort ctx { a with Res.reports } in
      check (Alcotest.list Alcotest.string) "ordered by text" expected
        (List.map text sorted.Res.reports))
    [ [ r; r' ]; [ r'; r ] ]

(* --- report bytes and work counters, pinned --- *)

let analyze_at ?(depth = 6) name =
  Res_solver.Expr.reset_counter_for_tests ();
  let w = Res_workloads.Workloads.find name in
  let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let config =
    {
      Res.default_config with
      search = { Search.default_config with max_segments = depth };
    }
  in
  (ctx, Res.analyze ~config ctx (Res_workloads.Truth.coredump w))

(* Reports that are physically the same value tie without their text
   being compared, and keep their stable order.  div-by-zero lists one
   suffix's report eight times at the CLI's default depth. *)
let test_display_sort_same_value () =
  let ctx, o = analyze_at ~depth:8 "div-by-zero" in
  let a = Res.analysis o in
  let r = List.hd a.Res.reports in
  check int_t "eight reports" 8 (List.length a.Res.reports);
  check bool_t "all the same value" true
    (List.for_all (fun x -> x == r) a.Res.reports);
  let sorted = Report.display_sort ctx a in
  check bool_t "order kept" true
    (List.for_all2 ( == ) a.Res.reports sorted.Res.reports)

(* Every break of the vertical layout is a newline: a two-tid schedule
   prints one tid a line. *)
let test_report_text_counter_race () =
  let ctx, o = analyze_at "counter-race" in
  check Alcotest.string "report list"
    "failure: thread 0 at main:check:4: assertion failed: both increments applied\n\
     suffix (2 segments, 9 instrs):\n\
     t1 worker:upd -> ret\n\
     t0 main:check -> CRASH (assertion failed: both increments applied)\n\
     schedule: 1\n\
     0\n\
     write set: counter\n\
     read set: counter\n\
     replayed: yes, exact coredump match (deterministic)\n\
     root cause: concurrency:0x1000:worker:upd:2\n\
     \n\
     \n\
     failure: thread 0 at main:check:4: assertion failed: both increments applied\n\
     suffix (2 segments, 9 instrs):\n\
     t2 worker:upd -> ret\n\
     t0 main:check -> CRASH (assertion failed: both increments applied)\n\
     schedule: 2\n\
     0\n\
     write set: counter\n\
     read set: counter\n\
     replayed: yes, exact coredump match (deterministic)\n\
     root cause: concurrency:0x1000:worker:upd:2\n\
     \n\
     \n\
     failure: thread 0 at main:check:4: assertion failed: both increments applied\n\
     suffix (1 segments, 5 instrs):\n\
     t0 main:check -> CRASH (assertion failed: both increments applied)\n\
     schedule: 0\n\
     write set: \n\
     read set: counter\n\
     replayed: yes, exact coredump match (deterministic)\n\
     root cause: assert:main:check:4:both increments applied\n\
     \n\
     "
    (Report.report_list_to_string ctx (Res.analysis o))

(* ... and a [,]-separated list puts each item after the first on its own
   line, in the failure line as in the CRASH segment line. *)
let test_report_text_deadlock () =
  let ctx, o = analyze_at "lock-order-deadlock" in
  check Alcotest.string "report list"
    "failure: thread 0 at main:entry:2: deadlock (threads 0,\n\
     1,\n\
     2)\n\
     suffix (1 segments, 2 instrs):\n\
     t1 left:second -> CRASH (deadlock (threads ))\n\
     schedule: 1\n\
     write set: \n\
     read set: m2\n\
     replayed: yes, exact coredump match (deterministic)\n\
     root cause: deadlock:0x1002+0x1000\n\
     \n\
     \n\
     failure: thread 0 at main:entry:2: deadlock (threads 0,\n\
     1,\n\
     2)\n\
     suffix (1 segments, 2 instrs):\n\
     t2 right:second -> CRASH (deadlock (threads ))\n\
     schedule: 2\n\
     write set: \n\
     read set: m1\n\
     replayed: yes, exact coredump match (deterministic)\n\
     root cause: deadlock:0x1002+0x1000\n\
     \n\
     "
    (Report.report_list_to_string ctx (Res.analysis o))

(* One digest of the three report renderings over every workload at
   depths 1, 3, 6, 8 and 12, and long-exec-50 at 55, with each outcome's
   [cpu time:] line left out. *)
let test_report_bytes_digest () =
  let without_cpu_time s =
    String.split_on_char '\n' s
    |> List.filter (fun l -> not (String.starts_with ~prefix:"cpu time:" l))
    |> String.concat "\n"
  in
  let b = Buffer.create (1 lsl 19) in
  List.iter
    (fun (name, depth) ->
      let ctx, o = analyze_at ~depth name in
      let a = Res.analysis o in
      Buffer.add_string b (Report.report_list_to_string ctx a);
      Buffer.add_string b (Report.reports_to_string ctx a);
      Buffer.add_string b
        (without_cpu_time
           (Report.outcome_to_string ctx (Report.sorted_outcome ctx o))))
    (List.concat_map
       (fun (w : Res_workloads.Truth.t) ->
         List.map (fun d -> (w.Res_workloads.Truth.w_name, d)) [ 1; 3; 6; 8; 12 ])
       Res_workloads.Workloads.all
    @ [ ("long-exec-50", 55) ]);
  check int_t "bytes" 399187 (Buffer.length b);
  check Alcotest.string "digest" "a6bfc7287a405be3bed1f2e77e44e807"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* All five printers write the bytes of the reference renderer, which
   formats every report afresh: with repeated reports and ties (every
   workload at depths 1-12, with and without stopping at the first
   cause), and with deep chains of shared tails (long-exec-50 at 55, and
   a 60000-iteration long-exec at 200). *)
let test_report_matches_reference () =
  let same what ctx o =
    let a = Res.analysis o in
    let eq name f g =
      check Alcotest.string (what ^ ": " ^ name) (g ctx a) (f ctx a)
    in
    eq "report_list_to_string" Report.report_list_to_string
      Report_ref.report_list_to_string;
    eq "reports_to_string" Report.reports_to_string Report_ref.reports_to_string;
    eq "analysis_to_string" Report.analysis_to_string Report_ref.analysis_to_string;
    List.iter
      (fun r ->
        check Alcotest.string (what ^ ": report_to_string")
          (Report_ref.report_to_string ctx r) (Report.report_to_string ctx r))
      a.Res.reports;
    check Alcotest.string (what ^ ": outcome_to_string")
      (Report_ref.outcome_to_string ctx (Report_ref.sorted_outcome ctx o))
      (Report.outcome_to_string ctx (Report.sorted_outcome ctx o))
  in
  let analyze ~depth ~stop (w : Res_workloads.Truth.t) =
    let ctx = Backstep.make_ctx w.Res_workloads.Truth.w_prog in
    let config =
      {
        Res.default_config with
        search = { Search.default_config with max_segments = depth };
        stop_at_first_cause = stop;
      }
    in
    (ctx, Res.analyze ~config ctx (Res_workloads.Truth.coredump w))
  in
  let case ~depth ~stop (w : Res_workloads.Truth.t) =
    let ctx, o = analyze ~depth ~stop w in
    same
      (Fmt.str "%s depth %d stop %b" w.Res_workloads.Truth.w_name depth stop)
      ctx o
  in
  List.iter
    (fun w ->
      for depth = 1 to 12 do
        List.iter (fun stop -> case ~depth ~stop w) [ true; false ]
      done)
    Res_workloads.Workloads.all;
  case ~depth:55 ~stop:true (long_exec_50 ());
  case ~depth:200 ~stop:true (Res_workloads.Long_exec.workload_n 60_000)

(* --- the per-program statics memo --- *)

(* Every analysis of one program shares one summary per domain
   (Backstep.statics_of).  Sharing must be invisible: each rendering
   below equals the one an analysis gets in a domain of its own, whose
   memo starts empty. *)

let statics_depths = [ 6; 8; 12 ]

let render_at prog dump depth =
  Res_solver.Expr.reset_counter_for_tests ();
  let ctx = Backstep.make_ctx prog in
  let config =
    {
      Res.default_config with
      search = { Search.default_config with max_segments = depth };
    }
  in
  Report.reports_to_string ctx (Res.analysis (Res.analyze ~config ctx dump))

let in_fresh_domain f = Domain.join (Domain.spawn f)

type statics_case = {
  sc_name : string;
  sc_prog : Res_ir.Prog.t;
  sc_dump : Res_vm.Coredump.t;
  sc_cold : (int * string) list;  (** depth, rendering in a fresh domain *)
}

let statics_case name prog dump =
  {
    sc_name = name;
    sc_prog = prog;
    sc_dump = dump;
    sc_cold =
      List.map
        (fun d -> (d, in_fresh_domain (fun () -> render_at prog dump d)))
        statics_depths;
  }

let workload_cases () =
  List.map
    (fun (w : Res_workloads.Truth.t) ->
      statics_case w.Res_workloads.Truth.w_name w.Res_workloads.Truth.w_prog
        (Res_workloads.Truth.coredump w))
    Res_workloads.Workloads.all

let check_case state ?(prog = fun c -> c.sc_prog) c d =
  check Alcotest.string
    (Fmt.str "%s, %s, depth %d" state c.sc_name d)
    (List.assoc d c.sc_cold)
    (render_at (prog c) c.sc_dump d)

(* Programs up to structural equality: the memo's classes. *)
let classes cases =
  List.fold_left
    (fun acc c ->
      if List.exists (Res_ir.Prog.equal c.sc_prog) acc then acc
      else c.sc_prog :: acc)
    [] cases
  |> List.length

let built () = (Backstep.statics_counts ()).Backstep.built
let reused () = (Backstep.statics_counts ()).Backstep.reused

(* [n] structurally distinct programs, none of them a workload's. *)
let filler_progs n =
  List.init n (fun i ->
      Res_ir.Parser.parse
        (Fmt.str "func main() {\nentry:\n  r0 = const %d\n  halt\n}\n" i))

let test_statics_memo_states () =
  let cases = workload_cases () in
  in_fresh_domain (fun () ->
      (* interleaved: every other program runs between two analyses of
         one program; the first depth also builds each record cold *)
      List.iter
        (fun d -> List.iter (fun c -> check_case "interleaved" c d) cases)
        statics_depths;
      check int_t "one build per program" (classes cases) (built ());
      (* warm: the program's record is in the memo *)
      List.iter
        (fun c ->
          List.iter
            (fun d ->
              let b = built () and r = reused () in
              check_case "warm" c d;
              check int_t "warm: nothing built" b (built ());
              check int_t "warm: one reuse" (r + 1) (reused ()))
            statics_depths)
        cases;
      (* a structurally equal re-parsed copy finds the original's record *)
      let reparse c =
        Res_ir.Parser.parse (Res_ir.Prog.to_string c.sc_prog)
      in
      List.iter
        (fun c ->
          let copy = reparse c in
          check bool_t "a distinct copy" true
            (copy != c.sc_prog && Res_ir.Prog.equal copy c.sc_prog);
          List.iter
            (fun d ->
              let b = built () in
              check_case "re-parsed copy" ~prog:(fun _ -> copy) c d;
              check int_t "re-parsed copy: nothing built" b (built ()))
            statics_depths)
        cases;
      (* right after the memo clears: bound programs fill it, and the
         next program's build starts it over *)
      List.iter
        (fun c ->
          List.iter
            (fun d ->
              List.iter
                (fun p -> ignore (Backstep.make_ctx p))
                (filler_progs Backstep.statics_bound);
              let b = built () in
              check_case "after a clear" c d;
              check int_t "after a clear: rebuilt" (b + 1) (built ()))
            statics_depths)
        cases);
  (* a second domain keeps its own memo: the first one's counts do not
     move while it analyzes *)
  List.iter (fun c -> ignore (Backstep.make_ctx c.sc_prog)) cases;
  let before = Backstep.statics_counts () in
  in_fresh_domain (fun () ->
      List.iter
        (fun d -> List.iter (fun c -> check_case "second domain" c d) cases)
        statics_depths;
      check int_t "second domain builds its own" (classes cases) (built ()));
  check bool_t "this domain's counts unchanged" true
    (before = Backstep.statics_counts ())

(* Structurally different programs that share a bounded structural hash
   (long executions differing only in their loop count, and two crafted
   programs whose blocks differ past the hash's reach) each keep their
   own statics. *)
let test_statics_hash_collisions () =
  let long n =
    let w = Res_workloads.Long_exec.workload_n n in
    statics_case (Fmt.str "long-exec %d" n) w.Res_workloads.Truth.w_prog
      (Res_workloads.Truth.coredump w)
  in
  let crashing name ~via ~n =
    let prog =
      Res_ir.Parser.parse
        (Fmt.str
           {|global g 2

func main() {
entry:
  r0 = const 0
  jmp %s
%s:
  r1 = const %d
  r2 = global g
  store r2[1] = r1
  r3 = div r1, r0
  halt
}
|}
           via via n)
    in
    match Res_vm.Exec.run_to_coredump prog with
    | Some dump, _ -> statics_case name prog dump
    | None, _ -> Alcotest.fail (name ^ " did not crash")
  in
  let cases =
    [
      long 50;
      long 53;
      long 57;
      crashing "via mid" ~via:"mid" ~n:5;
      crashing "via boom" ~via:"boom" ~n:7;
    ]
  in
  let same_hash a b =
    Hashtbl.hash a.sc_prog = Hashtbl.hash b.sc_prog
    && not (Res_ir.Prog.equal a.sc_prog b.sc_prog)
  in
  (match cases with
  | [ a; b; _; c; d ] ->
      check bool_t "same hash, different programs" true
        (same_hash a b && same_hash c d)
  | _ -> ());
  in_fresh_domain (fun () ->
      for _ = 1 to 2 do
        List.iter
          (fun d -> List.iter (fun c -> check_case "same hash" c d) cases)
          statics_depths
      done;
      check int_t "one build per program" (classes cases) (built ()))

(* The work counters (nodes, candidates, pruned, reversed, suffixes) of
   every workload at depth 8, and long-exec-50 at 55. *)
let test_work_counters () =
  List.iter
    (fun (name, depth, expected) ->
      let _, o = analyze_at ~depth name in
      let a = Res.analysis o in
      check
        Alcotest.(list int)
        (Fmt.str "%s depth %d" name depth)
        expected
        [
          a.Res.nodes_expanded;
          a.Res.candidates_tried;
          a.Res.nodes_pruned;
          a.Res.nodes_reversed;
          a.Res.suffixes_synthesized;
        ])
    [
      ("fig1-overflow", 8, [ 1; 1; 0; 0; 1 ]);
      ("counter-race", 8, [ 4; 4; 0; 0; 3 ]);
      ("lock-order-deadlock", 8, [ 3; 3; 0; 0; 2 ]);
      ("use-after-free-a", 8, [ 1; 1; 0; 0; 1 ]);
      ("use-after-free-b", 8, [ 1; 1; 0; 0; 1 ]);
      ("use-after-free-c", 8, [ 1; 1; 0; 0; 1 ]);
      ("double-free", 8, [ 1; 1; 0; 0; 1 ]);
      ("heap-overflow-tainted", 8, [ 1; 1; 0; 0; 1 ]);
      ("heap-overflow-internal", 8, [ 1; 1; 0; 0; 1 ]);
      ("div-by-zero", 8, [ 1; 1; 0; 0; 8 ]);
      ("semantic-discount", 8, [ 2; 2; 0; 1; 8 ]);
      ("hash-construct", 8, [ 3; 3; 0; 0; 8 ]);
      ("long-exec-50", 8, [ 8; 14; 6; 7; 8 ]);
      ("kvstore-stats-race", 8, [ 11; 14; 1; 0; 11 ]);
      ("long-exec-50", 55, [ 56; 108; 52; 55; 59 ]);
    ]

let () =
  Alcotest.run "res_core"
    [
      ( "snapshot",
        [
          Alcotest.test_case "of_coredump" `Quick test_snapshot_of_coredump;
          Alcotest.test_case "concretize" `Quick test_snapshot_concretize;
        ] );
      ( "backstep",
        [
          Alcotest.test_case "Fig.1 disambiguation" `Quick
            test_fig1_pred_disambiguation;
          Alcotest.test_case "mid-segment full refused" `Quick
            test_backstep_rejects_mid_segment_full;
        ] );
      ( "search",
        [
          Alcotest.test_case "Fig.1 complete suffix" `Quick
            test_fig1_complete_search;
          Alcotest.test_case "stats accounting" `Quick test_search_stats_accounting;
          Alcotest.test_case "node budget" `Quick test_search_budget;
          Alcotest.test_case "carry invisible, all workloads" `Quick
            test_carry_invisible_all_workloads;
          Alcotest.test_case "carry invisible, long-exec-50" `Quick
            test_carry_invisible_long_exec;
          Alcotest.test_case "deep analysis nodes linear" `Quick
            test_deep_analysis_nodes_linear;
          Alcotest.test_case "carry belongs to one ctx" `Quick
            test_carry_belongs_to_one_ctx;
          Alcotest.test_case "LBR pruning" `Quick test_lbr_prunes_candidates;
          Alcotest.test_case "minidump ablation" `Quick
            test_minidump_keeps_both_predecessors;
          Alcotest.test_case "address-pool ablation" `Quick
            test_addr_pool_ablation;
        ] );
      ( "replay",
        [
          Alcotest.test_case "exact + deterministic" `Quick
            test_replay_exact_and_deterministic;
          Alcotest.test_case "tampered model rejected" `Quick
            test_replay_detects_tampered_suffix;
          Alcotest.test_case "witness agrees with 5 replays" `Quick
            test_witness_agrees_with_replays;
          Alcotest.test_case "unread input breaks the witness" `Quick
            test_witness_unread_input;
          Alcotest.test_case "rewritten schedule breaks the witness" `Quick
            test_witness_rewritten_schedule;
          Alcotest.test_case "suffix accessors" `Quick test_suffix_accessors;
          Alcotest.test_case "handoff: reports = reference" `Quick
            test_handoff_reports_match_reference;
          Alcotest.test_case "handoff: every suffix = reference" `Quick
            test_handoff_every_suffix;
          Alcotest.test_case "handoff: altered records fall back" `Quick
            test_handoff_misses;
        ] );
      ( "rootcause",
        [
          Alcotest.test_case "race positive" `Quick test_find_races_positive;
          Alcotest.test_case "lock ordering" `Quick test_find_races_lock_ordered;
          Alcotest.test_case "join ordering" `Quick test_find_races_join_ordered;
          Alcotest.test_case "atomicity violation" `Quick
            test_find_atomicity_violation;
          Alcotest.test_case "signature stability" `Quick test_signature_stability;
        ] );
      ( "debugger",
        [
          Alcotest.test_case "basics" `Quick test_debugger_basics;
          Alcotest.test_case "hypothesis query" `Quick test_debugger_hypothesis;
          Alcotest.test_case "rejects bad suffix" `Quick
            test_debugger_rejects_bad_suffix;
        ] );
      ( "log breadcrumbs",
        [
          Alcotest.test_case "bind values" `Quick test_log_breadcrumbs_bind_values;
          Alcotest.test_case "prune contradictions" `Quick
            test_log_breadcrumbs_prune_contradictions;
          Alcotest.test_case "crash step checks the log" `Quick
            test_log_breadcrumbs_check_crash_step;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "counter race end-to-end" `Quick
            test_analyze_counter_race;
          Alcotest.test_case "cpu time" `Quick test_analyze_cpu_time_bounded;
          Alcotest.test_case "witness = 3 replays, every report body" `Quick
            test_witness_default_differential;
          Alcotest.test_case "repeated suffix reported once" `Quick
            test_repeated_suffix_reported_once;
          Alcotest.test_case "display order ties broken by text" `Quick
            test_display_sort_ties_by_text;
          Alcotest.test_case "display order of one repeated report" `Quick
            test_display_sort_same_value;
          Alcotest.test_case "report text: counter race" `Quick
            test_report_text_counter_race;
          Alcotest.test_case "report text: deadlock" `Quick
            test_report_text_deadlock;
          Alcotest.test_case "report bytes digest" `Quick
            test_report_bytes_digest;
          Alcotest.test_case "report bytes = reference renderer" `Quick
            test_report_matches_reference;
          Alcotest.test_case "work counters" `Quick test_work_counters;
        ] );
      ( "statics",
        [
          Alcotest.test_case "reports equal under every memo state" `Quick
            test_statics_memo_states;
          Alcotest.test_case "programs sharing a hash keep their own" `Quick
            test_statics_hash_collisions;
        ] );
    ]
