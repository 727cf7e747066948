(* Tests for the static-analysis layer (lib/static): mod/ref summaries,
   def-clear reachability, the chain refuter that prunes the backward
   search, the reverse-execution classifier and engine, and the property
   the whole layer stands on — pruning and reversing never change what
   the search reports, only how much work it does. *)

open Res_static

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let parse src = Res_ir.Parser.parse src

(* --- mod/ref summaries --- *)

let calls_src =
  {|
global a 1
global b 1

func main() {
entry:
  r0 = call mid()
  halt
}

func mid() {
entry:
  r0 = global a
  r1 = load r0[0]
  r2 = call leaf(r1)
  ret r2
}

func leaf(r0) {
entry:
  r1 = global b
  store r1[0] = r0
  ret r0
}
|}

let has_cell foot cell = Summary.CSet.mem cell foot.Summary.f_cells

let test_summary_transitive () =
  let s = Summary.of_prog (parse calls_src) in
  let trans = Summary.transitive s "main" in
  check bool_t "transitive main writes b[0] via leaf" true
    (has_cell trans.Summary.s_mod ("b", 0));
  check bool_t "transitive main reads a[0] via mid" true
    (has_cell trans.Summary.s_ref ("a", 0));
  check bool_t "transitive main does not write a[0]" false
    (has_cell trans.Summary.s_mod ("a", 0));
  check bool_t "no unknown accesses anywhere" false
    (trans.Summary.s_mod.Summary.f_unknown
    || trans.Summary.s_ref.Summary.f_unknown)

let test_summary_recursion_converges () =
  let src =
    {|
global a 1

func main() {
entry:
  r0 = call even()
  halt
}

func even() {
entry:
  r0 = global a
  r1 = load r0[0]
  r2 = call odd()
  ret r2
}

func odd() {
entry:
  r0 = global a
  r3 = const 1
  store r0[0] = r3
  r2 = call even()
  ret r2
}
|}
  in
  let s = Summary.of_prog (parse src) in
  let t = Summary.transitive s "even" in
  check bool_t "mutual recursion: cycle union reached" true
    (has_cell t.Summary.s_mod ("a", 0) && has_cell t.Summary.s_ref ("a", 0));
  check bool_t "unknown function gets the all-unknown summary" true
    (Summary.transitive s "nonexistent").Summary.s_mod.Summary.f_unknown

let test_summary_unresolved_is_unknown () =
  (* A store through an input-derived address cannot be resolved: the
     footprint must flag it rather than drop it. *)
  let src =
    {|
func main() {
entry:
  r0 = input net
  r1 = const 7
  store r0[0] = r1
  halt
}
|}
  in
  let s = Summary.of_prog (parse src) in
  let t = Summary.transitive s "main" in
  check bool_t "unresolved store sets the unknown flag" true
    t.Summary.s_mod.Summary.f_unknown

(* --- def-clear reachability --- *)

let reach_src =
  {|
global g 1

func f(r1) {
entry:
  r0 = global g
  br r1, w, s
w:
  r2 = const 3
  store r0[0] = r2
  jmp t
s:
  jmp t
t:
  r3 = global g
  r4 = load r3[0]
  halt
}
|}

let test_reach_def_clear_paths () =
  let prog = parse reach_src in
  let s = Summary.of_prog prog in
  let f = Res_ir.Prog.func prog "f" in
  check bool_t "s-path reaches t def-clear" true
    (Reach.def_clear_between s f ~from_block:"s" ~from_idx:(-1) ~to_block:"t"
       ("g", 0));
  check bool_t "w-path must write g[0] first" false
    (Reach.def_clear_between s f ~from_block:"w" ~from_idx:(-1) ~to_block:"t"
       ("g", 0))

let test_reach_def_clear_between_edges () =
  (* Block-entry ([from_idx = -1]) and past-the-last-instruction edge
     cases of the def-clear corridor query. *)
  let prog = parse reach_src in
  let s = Summary.of_prog prog in
  let f = Res_ir.Prog.func prog "f" in
  check bool_t "entry->t: the s arm avoids the store" true
    (Reach.def_clear_between s f ~from_block:"entry" ~from_idx:(-1)
       ~to_block:"t" ("g", 0));
  check bool_t "after the store, w falls through clear" true
    (Reach.def_clear_between s f ~from_block:"w" ~from_idx:1 ~to_block:"t"
       ("g", 0));
  check bool_t "from_idx past the block end scans nothing" true
    (Reach.def_clear_between s f ~from_block:"w" ~from_idx:99 ~to_block:"t"
       ("g", 0))

(* --- the chain refuter --- *)

let mk_query ?(tid = 0) ?(seed = fun _ -> Chain.Top)
    ?(post_mem = fun _ -> None) ?goal ?(relaxed = Chain.ISet.empty) prog =
  {
    Chain.q_prog = prog;
    q_summary = Summary.of_prog prog;
    q_tid = tid;
    q_seed = seed;
    q_post_mem = post_mem;
    q_goal = goal;
    q_relaxed_regs = relaxed;
    q_resolve_global = (fun g -> if g = "g" then Some 4096 else None);
    q_is_heap_addr = (fun _ -> false);
  }

let seg func block e = { Chain.sg_func = func; sg_block = block; sg_end = e }
let refuted = Alcotest.testable Fmt.(option string) (fun a b -> (a = None) = (b = None))

let test_chain_branch_contradiction () =
  let prog =
    parse
      {|
func main() {
entry:
  r0 = const 5
  br r0, a, b
a:
  halt
b:
  halt
}
|}
  in
  let q = mk_query prog in
  check refuted "constant 5 cannot take the zero arm" (Some "")
    (Chain.refute q [ seg "main" "entry" (Chain.End_branch "b") ]);
  check refuted "constant 5 takes the nonzero arm" None
    (Chain.refute q [ seg "main" "entry" (Chain.End_branch "a") ]);
  (* The refuter's registers are an array as long as the program's
     largest register number; past 2^16 it allocates none and never
     refutes. *)
  let prog =
    parse
      {|
func main() {
entry:
  r0 = const 5
  r65536 = const 1
  br r0, a, b
a:
  halt
b:
  halt
}
|}
  in
  check refuted "a register past 2^16 turns the refuter off" None
    (Chain.refute (mk_query prog) [ seg "main" "entry" (Chain.End_branch "b") ])

let test_chain_zero_arm_learns () =
  (* Taking the zero arm with an unknown condition records cond = 0; a
     later branch on the same register is then decided. *)
  let prog =
    parse
      {|
func main(r0) {
entry:
  br r0, a, b
a:
  halt
b:
  br r0, c, d
c:
  halt
d:
  halt
}
|}
  in
  let q = mk_query prog in
  check refuted "r0 learned 0 in entry forces d in b" (Some "")
    (Chain.refute q
       [
         seg "main" "entry" (Chain.End_branch "b");
         seg "main" "b" (Chain.End_branch "c");
       ]);
  check refuted "consistent zero-arm chain survives" None
    (Chain.refute q
       [
         seg "main" "entry" (Chain.End_branch "b");
         seg "main" "b" (Chain.End_branch "d");
       ])

let test_chain_trap_contradictions () =
  let prog =
    parse
      {|
func main() {
entry:
  r0 = const 0
  assert r0, "boom"
  jmp next
next:
  halt
}
|}
  in
  check refuted "completing past assert(0) is impossible" (Some "")
    (Chain.refute (mk_query prog)
       [ seg "main" "entry" (Chain.End_branch "next") ]);
  let div =
    parse
      {|
func main() {
entry:
  r0 = const 0
  r1 = const 8
  r2 = div r1, r0
  jmp next
next:
  halt
}
|}
  in
  check refuted "completing past a zero divisor is impossible" (Some "")
    (Chain.refute (mk_query div)
       [ seg "main" "entry" (Chain.End_branch "next") ])

let test_chain_store_vs_snapshot () =
  let prog =
    parse
      {|
global g 1

func main() {
entry:
  r0 = global g
  r1 = const 7
  store r0[0] = r1
  jmp next
next:
  halt
}
|}
  in
  let post_mem v a = if a = 4096 then Some v else None in
  check refuted "final store 7 vs snapshot 9 is impossible" (Some "")
    (Chain.refute
       (mk_query ~post_mem:(post_mem 9) prog)
       [ seg "main" "entry" (Chain.End_branch "next") ]);
  check refuted "final store 7 vs snapshot 7 is consistent" None
    (Chain.refute
       (mk_query ~post_mem:(post_mem 7) prog)
       [ seg "main" "entry" (Chain.End_branch "next") ])

let test_chain_goal_and_relaxation () =
  let prog =
    parse
      {|
func main() {
entry:
  r0 = const 5
  jmp next
next:
  halt
}
|}
  in
  let goal n r = if r = 0 then Chain.Known n else Chain.Top in
  let chain =
    [
      seg "main" "entry" (Chain.End_branch "next");
      seg "main" "next" (Chain.End_stop 0);
    ]
  in
  check refuted "chain forces r0=5 but the coredump frame holds 3" (Some "")
    (Chain.refute (mk_query ~goal:(goal 3) prog) chain);
  check refuted "matching goal survives" None
    (Chain.refute (mk_query ~goal:(goal 5) prog) chain);
  check refuted "a relaxed register imposes no goal" None
    (Chain.refute
       (mk_query ~goal:(goal 3) ~relaxed:(Chain.ISet.singleton 0) prog)
       chain);
  (* The goal only binds when the chain actually ends at the stop frame. *)
  check refuted "no goal check for a terminal chain" None
    (Chain.refute
       (mk_query ~goal:(goal 3) prog)
       [ seg "main" "entry" (Chain.End_branch "next") ]);
  (* A relaxed register forgets what the segment that assigned it
     derived, from the next segment on; one no segment assigns keeps its
     seed. *)
  let prog =
    parse
      {|
func main() {
entry:
  r0 = const 5
  jmp next
next:
  br r0, a, b
a:
  halt
b:
  halt
}
|}
  in
  let chain =
    [
      seg "main" "entry" (Chain.End_branch "next");
      seg "main" "next" (Chain.End_branch "b");
    ]
  in
  check refuted "r0=5 cannot take the zero arm in the next segment" (Some "")
    (Chain.refute (mk_query prog) chain);
  check refuted "relaxed r0 assigned in segment 1 is unknown in segment 2"
    None
    (Chain.refute (mk_query ~relaxed:(Chain.ISet.singleton 0) prog) chain);
  let prog =
    parse
      {|
func main() {
entry:
  r0 = const 5
  jmp next
next:
  br r1, a, b
a:
  halt
b:
  halt
}
|}
  in
  check refuted "relaxed r1 no segment assigns keeps its seed" (Some "")
    (Chain.refute
       (mk_query
          ~seed:(fun r -> if r = 1 then Chain.Known 3 else Chain.Top)
          ~relaxed:(Chain.ISet.singleton 1) prog)
       chain)

let test_chain_seeds_from_post_frame () =
  (* A register the candidate block does not define reads as its
     post-state value. *)
  let prog =
    parse
      {|
func main(r0) {
entry:
  br r0, a, b
a:
  halt
b:
  halt
}
|}
  in
  let seed n r = if r = 0 then Chain.Known n else Chain.Top in
  check refuted "seed r0=0 cannot take the nonzero arm" (Some "")
    (Chain.refute
       (mk_query ~seed:(seed 0) prog)
       [ seg "main" "entry" (Chain.End_branch "a") ]);
  check refuted "seed r0=0 takes the zero arm" None
    (Chain.refute
       (mk_query ~seed:(seed 0) prog)
       [ seg "main" "entry" (Chain.End_branch "b") ]);
  (* A register the candidate leaves untouched still reads its seed in a
     later segment. *)
  let prog =
    parse
      {|
func main(r0) {
entry:
  r1 = const 1
  jmp next
next:
  br r0, a, b
a:
  halt
b:
  halt
}
|}
  in
  let chain arm =
    [
      seg "main" "entry" (Chain.End_branch "next");
      seg "main" "next" (Chain.End_branch arm);
    ]
  in
  check refuted "seed r0=0 cannot take the nonzero arm in segment 2"
    (Some "")
    (Chain.refute (mk_query ~seed:(seed 0) prog) (chain "a"));
  check refuted "seed r0=0 takes the zero arm in segment 2" None
    (Chain.refute (mk_query ~seed:(seed 0) prog) (chain "b"))

let test_chain_call_clobbers () =
  (* The candidate's store fact must not survive a call that may write
     the cell: no refutation even though the snapshot disagrees. *)
  let prog =
    parse
      {|
global g 1

func main() {
entry:
  r0 = global g
  r1 = const 7
  store r0[0] = r1
  r2 = call smash()
  jmp next
next:
  halt
}

func smash() {
entry:
  r0 = global g
  r9 = const 1
  store r0[0] = r9
  ret r9
}
|}
  in
  check refuted "call clobbers the store fact: no refutation" None
    (Chain.refute
       (mk_query ~post_mem:(fun a -> if a = 4096 then Some 9 else None) prog)
       [ seg "main" "entry" (Chain.End_branch "next") ])

(* --- pruning never changes the reports (the soundness property) --- *)

module D = Res_faultinject.Differential

let check_all_identical what (s : D.summary) =
  List.iter (Alcotest.failf "%s violated: %a" what D.pp_run) s.D.failures;
  check int_t "all workloads bit-identical" s.D.total s.D.ok

let long_exec () = [ Res_workloads.Workloads.find "long-exec-50" ]

let only_run (s : D.summary) =
  match s.D.runs with [ r ] -> r | _ -> Alcotest.fail "expected one run"

let test_prune_equivalence_all_workloads () =
  check_all_identical "prune equivalence"
    (Res_faultinject.Faultinject.prune_equivalence_campaign ())

let test_prune_reduces_long_exec () =
  (* E14 acceptance: >= 30% fewer backward-step evaluations on the
     long-execution workload. *)
  let r =
    only_run
      (Res_faultinject.Faultinject.prune_equivalence_campaign
         ~workloads:(long_exec ()) ())
  in
  check bool_t "long-exec reports unchanged" true r.D.equivalent;
  let on = D.count r "static-prune.nodes" in
  let off = D.count r "nodes" in
  if not (on * 10 <= off * 7) then
    Alcotest.failf "expected >=30%% node reduction, got %d -> %d" off on

(* --- the invertibility classifier --- *)

let loop_src =
  {|
global g 1

func main(r0) {
entry:
  jmp loop
loop:
  r1 = global g
  r2 = load r1[0]
  r3 = const 1
  r4 = add r2, r3
  store r1[0] = r4
  r5 = sub r0, r3
  r0 = mov r5
  br r0, loop, done
done:
  halt
}
|}

let classify_block ?(func = "main") ~block src =
  let prog = parse src in
  let summary = Summary.of_prog prog in
  Invert.classify ~summary (Res_ir.Prog.block prog ~func ~label:block)

let check_invertible name v =
  match v with
  | Invert.Invertible _ -> ()
  | Invert.Not_invertible e -> Alcotest.failf "%s: unexpectedly rejected: %s" name e

let contains_substr ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_barrier name ~substr v =
  match v with
  | Invert.Invertible _ -> Alcotest.failf "%s: unexpectedly invertible" name
  | Invert.Not_invertible e ->
      check bool_t (Fmt.str "%s: reason mentions %S (got %S)" name substr e)
        true (contains_substr ~sub:substr e)

let test_invert_classifier_classes () =
  check_invertible "pure arithmetic + load/store loop body"
    (classify_block ~block:"loop" loop_src);
  let wrap body term =
    Fmt.str {|
global g 1

func callee(r9) {
entry:
  r8 = const 1
  store r9[0] = r8
  ret
}

func main(r0) {
entry:
  %s
  %s
next:
  halt
}
|} body term
  in
  check_barrier "input is non-deterministic" ~substr:"input"
    (classify_block ~block:"entry" (wrap "r1 = input net" "jmp next"));
  check_barrier "unresolved call target" ~substr:"unresolved"
    (classify_block ~block:"entry" (wrap "r1 = global g\ncall callee(r1)" "jmp next"));
  check_barrier "spawn creates a thread" ~substr:"spawn"
    (classify_block ~block:"entry" (wrap "r1 = spawn callee(r0)" "jmp next"));
  check_barrier "alloc mutates the heap" ~substr:"alloc"
    (classify_block ~block:"entry" (wrap "r1 = const 4\nr2 = alloc r1" "jmp next"));
  check_barrier "lock is a synchronization point" ~substr:"lock"
    (classify_block ~block:"entry" (wrap "r1 = global g\nlock r1" "jmp next"));
  check_barrier "ret leaves the frame" ~substr:"ret"
    (classify_block ~block:"entry" (wrap "r1 = const 0" "ret"));
  check_barrier "halt ends the thread" ~substr:"halt"
    (classify_block ~block:"done" loop_src)

let test_invert_program_coverage () =
  List.iter
    (fun (w : Res_workloads.Truth.t) ->
      let name = w.Res_workloads.Truth.w_name in
      let cov = Invert.program_coverage w.Res_workloads.Truth.w_prog in
      if cov.Invert.cov_invertible > cov.Invert.cov_total then
        Alcotest.failf "%s: invertible %d > total %d" name
          cov.Invert.cov_invertible cov.Invert.cov_total;
      if cov.Invert.cov_slice > cov.Invert.cov_total then
        Alcotest.failf "%s: slice %d > total %d" name cov.Invert.cov_slice
          cov.Invert.cov_total)
    Res_workloads.Workloads.all;
  (* E19 reverses long-exec-50's loop body: the classifier must accept
     some of it. *)
  let w = Res_workloads.Workloads.find "long-exec-50" in
  check bool_t "long-exec-50 has invertible instructions" true
    ((Invert.program_coverage w.Res_workloads.Truth.w_prog).Invert.cov_invertible
    > 0)

(* --- the concrete reverse engine --- *)

(* Forward truth for [loop_src]'s loop body: entry r0 = 5, g[0] = 7
   steps to exit r0 = 4, g[0] = 8, branching back to [loop]. *)
let g_base = 4096

let loop_oracle ?(post_reg = fun _ -> Revexec.P_sym) ?(target = "loop") () =
  {
    Revexec.post_reg;
    read_post = (fun a -> if a = g_base then Some 8 else None);
    is_mapped = (fun a -> a = g_base);
    global_base = (fun g -> if String.equal g "g" then Some g_base else None);
    require_target = target;
    regs = [ 0; 1; 2; 3; 4; 5 ];
  }

let loop_plan () =
  match classify_block ~block:"loop" loop_src with
  | Invert.Invertible plan -> plan
  | Invert.Not_invertible e -> Alcotest.failf "loop body rejected: %s" e

let loop_block () =
  Res_ir.Prog.block (parse loop_src) ~func:"main" ~label:"loop"

let concrete_posts r =
  (* the full concrete post frame the first backward step sees *)
  List.assoc_opt r [ (0, 4); (1, g_base); (2, 7); (3, 1); (4, 8); (5, 4) ]

let test_revexec_recovers_pre_state () =
  let post_reg r =
    match concrete_posts r with
    | Some v -> Revexec.P_val v
    | None -> Revexec.P_sym
  in
  match Revexec.run (loop_block ()) (loop_plan ()) (loop_oracle ~post_reg ()) with
  | Revexec.Reversed rs ->
      check int_t "entry r0 recovered" 5
        (Revexec.IMap.find 0 rs.Revexec.rs_entry_regs);
      check bool_t "pre g[0] recovered" true
        (rs.Revexec.rs_pre_mem = [ (g_base, 7) ]);
      check bool_t "write set is the cell" true (rs.Revexec.rs_writes = [ g_base ]);
      check string_t "branches back into the loop" "loop" rs.Revexec.rs_target
  | Revexec.Infeasible e -> Alcotest.failf "infeasible: %s" e
  | Revexec.Unknown e -> Alcotest.failf "unknown: %s" e

let test_revexec_chains_through_wildcards () =
  (* After one reverse step the non-live defined registers hold free
     symbols; only r0 (the live-in) stays concrete.  The rigid pass must
     still resolve the store address and the walk must still pin r0. *)
  let post_reg r = if r = 0 then Revexec.P_val 4 else Revexec.P_free in
  match Revexec.run (loop_block ()) (loop_plan ()) (loop_oracle ~post_reg ()) with
  | Revexec.Reversed rs ->
      check int_t "entry r0 recovered through wildcards" 5
        (Revexec.IMap.find 0 rs.Revexec.rs_entry_regs);
      check bool_t "pre g[0] recovered through wildcards" true
        (rs.Revexec.rs_pre_mem = [ (g_base, 7) ])
  | Revexec.Infeasible e -> Alcotest.failf "infeasible: %s" e
  | Revexec.Unknown e -> Alcotest.failf "unknown: %s" e

let test_revexec_proves_infeasible () =
  (* r0 = 4 at the block's end takes the loop arm; a candidate that must
     land on [done] has no pre-state.  Likewise a post value the block
     text contradicts (r3 must be const 1). *)
  let post_reg r = if r = 0 then Revexec.P_val 4 else Revexec.P_free in
  (match
     Revexec.run (loop_block ()) (loop_plan ())
       (loop_oracle ~post_reg ~target:"done" ())
   with
  | Revexec.Infeasible _ -> ()
  | Revexec.Reversed _ -> Alcotest.fail "wrong-target candidate reversed"
  | Revexec.Unknown e -> Alcotest.failf "expected infeasible, got unknown: %s" e);
  let post_reg r =
    if r = 3 then Revexec.P_val 2
    else if r = 0 then Revexec.P_val 4
    else Revexec.P_free
  in
  match Revexec.run (loop_block ()) (loop_plan ()) (loop_oracle ~post_reg ()) with
  | Revexec.Infeasible _ -> ()
  | Revexec.Reversed _ -> Alcotest.fail "contradicted const reversed"
  | Revexec.Unknown e -> Alcotest.failf "expected infeasible, got unknown: %s" e

let test_revexec_falls_back_on_symbolic_state () =
  (* A defined register whose post value other constraints may force
     ([P_sym]) cannot be checked concretely; neither can a wildcard
     branch register, nor a wildcard carried live-in (the symbolic path
     would force that symbol through its compatibility equality, so
     guessing a value would diverge from it). *)
  let post_reg r = if r = 0 then Revexec.P_val 4 else Revexec.P_sym in
  (match Revexec.run (loop_block ()) (loop_plan ()) (loop_oracle ~post_reg ()) with
  | Revexec.Unknown _ -> ()
  | Revexec.Reversed _ | Revexec.Infeasible _ ->
      Alcotest.fail "P_sym defined register must fall back");
  let post_reg r =
    if r = 0 then Revexec.P_free
    else match concrete_posts r with
      | Some v -> Revexec.P_val v
      | None -> Revexec.P_free
  in
  (match Revexec.run (loop_block ()) (loop_plan ()) (loop_oracle ~post_reg ()) with
  | Revexec.Unknown _ -> ()
  | Revexec.Reversed _ | Revexec.Infeasible _ ->
      Alcotest.fail "wildcard branch register must fall back");
  let carried_src =
    {|
global g 1

func main(r0) {
entry:
  jmp loop
loop:
  r2 = load r1[0]
  br r0, loop, done
done:
  halt
}
|}
  in
  let prog = parse carried_src in
  let block = Res_ir.Prog.block prog ~func:"main" ~label:"loop" in
  let plan =
    match classify_block ~block:"loop" carried_src with
    | Invert.Invertible plan -> plan
    | Invert.Not_invertible e -> Alcotest.failf "rejected: %s" e
  in
  let post_reg r =
    if r = 1 then Revexec.P_free
    else if r = 0 then Revexec.P_val 1
    else Revexec.P_val 8
  in
  match
    Revexec.run block plan
      { (loop_oracle ~post_reg ()) with Revexec.regs = [ 0; 1; 2 ] }
  with
  | Revexec.Unknown _ -> ()
  | Revexec.Reversed _ | Revexec.Infeasible _ ->
      Alcotest.fail "wildcard carried live-in must fall back"

let test_revexec_self_clobbering_load_falls_back () =
  let src =
    {|
global g 1

func main(r0) {
entry:
  jmp loop
loop:
  r1 = global g
  r1 = load r1[0]
  br r0, loop, done
done:
  halt
}
|}
  in
  let prog = parse src in
  let block = Res_ir.Prog.block prog ~func:"main" ~label:"loop" in
  let plan =
    match classify_block ~block:"loop" src with
    | Invert.Invertible plan -> plan
    | Invert.Not_invertible e -> Alcotest.failf "rejected: %s" e
  in
  let post_reg r =
    if r = 0 then Revexec.P_val 1
    else if r = 1 then Revexec.P_val 8
    else Revexec.P_sym
  in
  match
    Revexec.run block plan
      { (loop_oracle ~post_reg ()) with Revexec.regs = [ 0; 1 ] }
  with
  | Revexec.Unknown _ -> ()
  | Revexec.Reversed _ | Revexec.Infeasible _ ->
      Alcotest.fail "a load clobbering its own address register must fall back"

(* --- reverse execution never changes the reports --- *)

let test_reverse_equivalence_all_workloads () =
  check_all_identical "reverse equivalence"
    (Res_faultinject.Faultinject.reverse_equivalence_campaign ())

let test_reverse_reduces_long_exec_queries () =
  (* E19 acceptance: >= 2x fewer solver queries on the long-execution
     workload when the fast path is on. *)
  let r =
    only_run
      (Res_faultinject.Faultinject.reverse_equivalence_campaign
         ~workloads:(long_exec ()) ())
  in
  check bool_t "long-exec reports unchanged" true r.D.equivalent;
  check bool_t "fast path actually fired" true
    (D.count r "reverse-exec.reversed" > 0);
  let q_on = D.count r "reverse-exec.queries" in
  let q_off = D.count r "queries" in
  if not (q_on * 2 <= q_off) then
    Alcotest.failf "expected >=2x fewer solver queries, got %d -> %d" q_off q_on

let () =
  Alcotest.run "static"
    [
      ( "summary",
        [
          Alcotest.test_case "transitive mod/ref through calls" `Quick
            test_summary_transitive;
          Alcotest.test_case "recursion converges" `Quick
            test_summary_recursion_converges;
          Alcotest.test_case "unresolved access flags unknown" `Quick
            test_summary_unresolved_is_unknown;
        ] );
      ( "reach",
        [
          Alcotest.test_case "def-clear paths" `Quick
            test_reach_def_clear_paths;
          Alcotest.test_case "def-clear block entry/exit edges" `Quick
            test_reach_def_clear_between_edges;
        ] );
      ( "chain",
        [
          Alcotest.test_case "branch contradiction" `Quick
            test_chain_branch_contradiction;
          Alcotest.test_case "zero-arm learns cond = 0" `Quick
            test_chain_zero_arm_learns;
          Alcotest.test_case "assert and division traps" `Quick
            test_chain_trap_contradictions;
          Alcotest.test_case "final stores vs snapshot" `Quick
            test_chain_store_vs_snapshot;
          Alcotest.test_case "goal pinning and relaxation" `Quick
            test_chain_goal_and_relaxation;
          Alcotest.test_case "seeds from the post frame" `Quick
            test_chain_seeds_from_post_frame;
          Alcotest.test_case "calls clobber store facts" `Quick
            test_chain_call_clobbers;
        ] );
      ( "prune",
        [
          Alcotest.test_case "reports identical on all workloads" `Quick
            test_prune_equivalence_all_workloads;
          Alcotest.test_case "long-exec explores >=30% fewer nodes" `Quick
            test_prune_reduces_long_exec;
        ] );
      ( "invert",
        [
          Alcotest.test_case "per-instruction-class verdicts" `Quick
            test_invert_classifier_classes;
          Alcotest.test_case "program coverage on the workloads" `Quick
            test_invert_program_coverage;
        ] );
      ( "revexec",
        [
          Alcotest.test_case "recovers the unique pre-state" `Quick
            test_revexec_recovers_pre_state;
          Alcotest.test_case "chains through free wildcards" `Quick
            test_revexec_chains_through_wildcards;
          Alcotest.test_case "proves infeasibility without the solver" `Quick
            test_revexec_proves_infeasible;
          Alcotest.test_case "falls back on symbolic state" `Quick
            test_revexec_falls_back_on_symbolic_state;
          Alcotest.test_case "self-clobbering load falls back" `Quick
            test_revexec_self_clobbering_load_falls_back;
        ] );
      ( "reverse",
        [
          Alcotest.test_case "reports identical on all workloads" `Quick
            test_reverse_equivalence_all_workloads;
          Alcotest.test_case "long-exec needs >=2x fewer solver queries" `Quick
            test_reverse_reduces_long_exec_queries;
        ] );
    ]
