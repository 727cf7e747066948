(* Unit tests for the forward symbolic executor: journaling, pre-symbol
   minting, branch forking, call inlining, partial (crash-site) execution,
   and the alloc/spawn plan machinery. *)

module ISet = Set.Make (Int)
module IMap = Map.Make (Int)
open Res_symex

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let parse = Res_ir.Parser.parse

(* Build a request with sensible defaults for a block of [func] in [prog],
   seeded with [seed] register values. *)
let request ?(seed = []) ?(post = fun _ -> Res_solver.Expr.zero)
    ?(havoc = ISet.empty) ?(heap = Res_mem.Heap.empty) ?(alloc_plan = [])
    ?(spawn_plan = []) ?(ambient = []) ?(addr_pool = []) prog ~func ~block ~mode
    =
  let seed_map =
    List.fold_left (fun m (r, e) -> IMap.add r e m) IMap.empty seed
  in
  {
    Symexec.prog;
    layout = Res_mem.Layout.of_prog prog;
    tid = 0;
    frame = Symframe.pre_frame ~func ~block ~seed:seed_map;
    heap;
    post_mem = post;
    havoc_reads = havoc;
    ambient;
    addr_pool;
    alloc_plan;
    spawn_plan;
    dynamic_alloc = false;
    mode;
  }

let run rq = Symexec.run rq

let straight_prog =
  parse
    {|
global g 1
func main() {
a:
  r0 = const 5
  r1 = add r0, r0
  r2 = global g
  store r2[0] = r1
  jmp b
b:
  halt
}
|}

let test_straight_line () =
  let rq =
    request straight_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, rejects = run rq in
  check int_t "one outcome" 1 (List.length outs);
  check int_t "no rejects" 0 (List.length rejects);
  let o = List.hd outs in
  check bool_t "fell to b" true (o.Symexec.stop = Symexec.Fell_to "b");
  let writes = Symmem.final_writes o.Symexec.mem in
  check int_t "one memory write" 1 (List.length writes);
  let addr, value = List.hd writes in
  check int_t "write to g" Res_mem.Layout.globals_base addr;
  (match Res_solver.Expr.const_val (Res_solver.Simplify.norm value) with
  | Some v -> check int_t "wrote 10" 10 v
  | None -> Alcotest.fail "expected concrete written value");
  check int_t "no pre regs (all defined before use)" 0
    (List.length o.Symexec.pre_regs)

let test_wrong_target_rejected () =
  let rq =
    request straight_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "a" })
  in
  let outs, rejects = run rq in
  check int_t "no outcomes" 0 (List.length outs);
  check bool_t "reject recorded" true (rejects <> [])

let pre_prog =
  parse
    {|
func main() {
a:
  r1 = add r0, r0
  jmp b
b:
  halt
}
|}

let test_pre_reg_minting () =
  (* r0 is read before any definition: a pre symbol must be minted *)
  let rq =
    request pre_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, _ = run rq in
  let o = List.hd outs in
  check int_t "one pre reg" 1 (List.length o.Symexec.pre_regs);
  check int_t "pre reg is r0" 0 (fst (List.hd o.Symexec.pre_regs))

let branch_prog =
  parse
    {|
func main() {
a:
  r1 = const 10
  r2 = lt r0, r1
  br r2, low, high
low:
  halt
high:
  halt
}
|}

let test_branch_forks_on_symbolic () =
  (* no target required: both directions are feasible for symbolic r0 *)
  let rq =
    request branch_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = None })
  in
  let outs, _ = run rq in
  check int_t "two outcomes" 2 (List.length outs);
  let targets =
    List.filter_map
      (fun (o : Symexec.outcome) ->
        match o.Symexec.stop with Symexec.Fell_to l -> Some l | _ -> None)
      outs
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "both targets" [ "high"; "low" ] targets

let test_branch_constrained_by_target () =
  let rq =
    request branch_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "low" })
  in
  let outs, _ = run rq in
  check int_t "one outcome" 1 (List.length outs);
  let o = List.hd outs in
  (* the path must force r0 < 10 *)
  match Res_solver.Solver.solve o.Symexec.path with
  | Res_solver.Solver.Sat m ->
      let r0_sym = snd (List.hd o.Symexec.pre_regs) in
      check bool_t "model satisfies r0 < 10" true
        (Res_solver.Model.value m r0_sym < 10)
  | _ -> Alcotest.fail "expected satisfiable path"

let test_branch_concrete_seed () =
  (* with r0 seeded concrete, requiring the wrong target is rejected *)
  let rq =
    request branch_prog ~func:"main" ~block:"a"
      ~seed:[ (0, Res_solver.Expr.const 50) ]
      ~mode:(Symexec.Full { require_target = Some "low" })
  in
  let outs, rejects = run rq in
  check int_t "infeasible" 0 (List.length outs);
  check bool_t "rejected" true (rejects <> [])

let call_prog =
  parse
    {|
func main() {
a:
  r0 = const 6
  r1 = call triple(r0)
  jmp b
b:
  halt
}
func triple(r0) {
entry:
  r1 = const 3
  r2 = mul r0, r1
  ret r2
}
|}

let test_call_inlined () =
  let rq =
    request call_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, _ = run rq in
  check int_t "one outcome" 1 (List.length outs);
  let o = List.hd outs in
  let bottom = List.rev o.Symexec.frames |> List.hd in
  match Symframe.read_opt bottom 1 with
  | Some e -> (
      match Res_solver.Expr.const_val (Res_solver.Simplify.norm e) with
      | Some v -> check int_t "call result" 18 v
      | None -> Alcotest.fail "expected concrete result")
  | None -> Alcotest.fail "r1 not set"

let test_call_inlining_disabled () =
  let config = { Symexec.default_config with inline_calls = false } in
  let rq =
    request call_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, rejects = Symexec.run ~config rq in
  check int_t "no outcomes without inlining" 0 (List.length outs);
  check bool_t "rejected" true (rejects <> [])

let crash_prog =
  parse
    {|
func main() {
a:
  r0 = const 1
  r1 = div r0, r2
  halt
}
|}

let test_partial_crash () =
  let rq =
    request crash_prog ~func:"main" ~block:"a"
      ~mode:
        (Symexec.Partial
           { stack = [ ("main", "a", 1) ]; crash = Some Res_vm.Crash.Div_by_zero })
  in
  let outs, _ = run rq in
  check int_t "one outcome" 1 (List.length outs);
  let o = List.hd outs in
  check bool_t "crashed here" true (o.Symexec.stop = Symexec.Crashed_here);
  (* the divisor pre-symbol must be constrained to 0 *)
  match Res_solver.Solver.solve o.Symexec.path with
  | Res_solver.Solver.Sat m ->
      let r2_sym = List.assoc 2 o.Symexec.pre_regs in
      check int_t "divisor forced to 0" 0 (Res_solver.Model.value m r2_sym)
  | _ -> Alcotest.fail "expected satisfiable crash path"

let callee_crash_prog =
  parse
    {|
func main() {
a:
  r0 = const 8
  r1 = call half(r0)
  jmp b
b:
  halt
}
func half(r0) {
entry:
  r1 = div r0, r2
  ret r1
}
|}

let test_partial_crash_in_callee () =
  (* the crash sits one call deep: the stack spec names both frames *)
  let rq =
    request callee_crash_prog ~func:"main" ~block:"a"
      ~mode:
        (Symexec.Partial
           {
             stack = [ ("main", "a", 2); ("half", "entry", 0) ];
             crash = Some Res_vm.Crash.Div_by_zero;
           })
  in
  let outs, _ = run rq in
  check int_t "one outcome" 1 (List.length outs);
  let o = List.hd outs in
  check int_t "two frames at the stop" 2 (List.length o.Symexec.frames);
  (* the callee's divisor r2 is zero-initialized (not a parameter), so the
     crash constraint is trivially satisfiable *)
  match Res_solver.Solver.solve o.Symexec.path with
  | Res_solver.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected satisfiable crash path"

let test_partial_wrong_stack_never_stops () =
  (* a spec that can never match: partial execution runs to the terminator
     and is rejected *)
  let rq =
    request callee_crash_prog ~func:"main" ~block:"a"
      ~mode:
        (Symexec.Partial
           {
             stack = [ ("main", "a", 99) ];
             crash = Some Res_vm.Crash.Div_by_zero;
           })
  in
  let outs, rejects = run rq in
  check int_t "no outcomes" 0 (List.length outs);
  check bool_t "rejected" true (rejects <> [])

let input_prog =
  parse
    {|
global out 1
func main() {
a:
  r0 = input net
  r1 = input file
  r2 = global out
  store r2[0] = r0
  jmp b
b:
  halt
}
|}

let test_inputs_journaled () =
  let rq =
    request input_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, _ = run rq in
  let o = List.hd outs in
  check int_t "two inputs" 2 (List.length o.Symexec.inputs);
  check bool_t "kinds in order" true
    (List.map fst o.Symexec.inputs = [ Res_ir.Instr.Net; Res_ir.Instr.File ])

let alloc_prog =
  parse
    {|
func main() {
a:
  r0 = const 4
  r1 = alloc r0
  r2 = const 9
  store r1[1] = r2
  jmp b
b:
  halt
}
|}

let test_alloc_plan () =
  (* plan the allocation at the bump pointer with matching size *)
  let base = Res_mem.Layout.heap_base in
  let rq =
    request alloc_prog ~func:"main" ~block:"a" ~alloc_plan:[ (base, 4) ]
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, _ = run rq in
  check int_t "one outcome" 1 (List.length outs);
  let o = List.hd outs in
  check (Alcotest.list int_t) "alloc recorded" [ base ]
    (List.map fst o.Symexec.allocs);
  check bool_t "write landed inside the block" true
    (List.mem_assoc (base + 1) (Symmem.final_writes o.Symexec.mem))

let test_alloc_without_plan_rejected () =
  let rq =
    request alloc_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, rejects = run rq in
  check int_t "no outcomes" 0 (List.length outs);
  check bool_t "rejected" true (rejects <> [])

let test_dynamic_alloc () =
  let rq =
    request alloc_prog ~func:"main" ~block:"a"
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let rq = { rq with Symexec.dynamic_alloc = true } in
  let outs, _ = run rq in
  check int_t "dynamic alloc succeeds" 1 (List.length outs)

let lock_prog =
  parse
    {|
global m 1
func main() {
a:
  r0 = global m
  lock r0
  unlock r0
  jmp b
b:
  halt
}
|}

let test_lock_constraints () =
  let m_addr = Res_mem.Layout.globals_base in
  let sym = Res_solver.Expr.fresh "cell" in
  let rq =
    request lock_prog ~func:"main" ~block:"a"
      ~post:(fun a -> if a = m_addr then sym else Res_solver.Expr.zero)
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, _ = run rq in
  check int_t "one outcome" 1 (List.length outs);
  let o = List.hd outs in
  check
    (Alcotest.list (Alcotest.pair bool_t int_t))
    "lock ops journaled"
    [ (true, m_addr); (false, m_addr) ]
    o.Symexec.lock_ops;
  (* acquiring requires the cell to have been 0 *)
  match Res_solver.Solver.solve o.Symexec.path with
  | Res_solver.Solver.Sat model -> (
      match sym with
      | Res_solver.Expr.Sym s ->
          check int_t "lock cell was free" 0 (Res_solver.Model.value model s)
      | _ -> assert false)
  | _ -> Alcotest.fail "expected satisfiable path"

let test_read_before_write_tracking () =
  let prog =
    parse
      {|
global g 1
func main() {
a:
  r0 = global g
  r1 = load r0[0]
  r2 = const 1
  r3 = add r1, r2
  store r0[0] = r3
  jmp b
b:
  halt
}
|}
  in
  let g = Res_mem.Layout.globals_base in
  let rq =
    request prog ~func:"main" ~block:"a"
      ~post:(fun _ -> Res_solver.Expr.const 7)
      ~mode:(Symexec.Full { require_target = Some "b" })
  in
  let outs, _ = run rq in
  let o = List.hd outs in
  check bool_t "g read before write" true
    (ISet.mem g o.Symexec.read_before_write);
  check bool_t "g written" true (Symmem.was_written o.Symexec.mem g);
  (* re-run havocked: the read must now mint a pre symbol *)
  let rq = { rq with Symexec.havoc_reads = ISet.singleton g } in
  let outs, _ = run rq in
  let o = List.hd outs in
  check int_t "one pre mem symbol" 1 (List.length (Symmem.pre_syms o.Symexec.mem));
  match Symmem.pre_syms o.Symexec.mem with
  | [ (a, s) ] ->
      check Alcotest.string "its name" (Printf.sprintf "pre:mem[0x%x]" a)
        s.Res_solver.Expr.name
  | _ -> Alcotest.fail "expected one pre mem symbol"

(* Pre-memory symbol names are written without [Printf]; they must be
   the bytes [Printf.sprintf "pre:mem[0x%x]"] writes, negative addresses
   included. *)
let test_pre_mem_name () =
  List.iter
    (fun a ->
      check Alcotest.string (string_of_int a)
        (Printf.sprintf "pre:mem[0x%x]" a)
        (Symmem.pre_mem_name a))
    ([ 0; 1; 9; 10; 15; 16; 255; 256; 0x1000; 0x100_0000; 0xdead_beef;
       max_int; min_int; -1; -16 ]
    @ List.init 200 (fun i -> (i * 7919) lxor (i lsl 40)))

(* differential property: on concrete inputs, the symbolic executor and
   the VM are the same interpreter — same final registers, same memory
   writes.  Random straight-line arithmetic blocks with a store. *)
let gen_diff_block =
  let open QCheck2.Gen in
  let n_regs = 5 in
  let* inits = list_repeat n_regs (int_range (-40) 40) in
  let* body =
    let gen_instr =
      let* dst = int_range 0 (n_regs - 1) in
      let* choice = int_range 0 2 in
      match choice with
      | 0 ->
          let* op = oneofl Res_ir.Instr.[ Add; Sub; Mul; And; Or; Xor; Lt; Ge ] in
          let* a = int_range 0 (n_regs - 1) in
          let* b = int_range 0 (n_regs - 1) in
          return (Res_ir.Instr.Binop (op, dst, a, b))
      | 1 ->
          let* a = int_range 0 (n_regs - 1) in
          return (Res_ir.Instr.Mov (dst, a))
      | _ ->
          let* a = int_range 0 (n_regs - 1) in
          return (Res_ir.Instr.Unop (Res_ir.Instr.Neg, dst, a))
    in
    let* n = int_range 1 10 in
    list_repeat n gen_instr
  in
  let* store_src = int_range 0 (n_regs - 1) in
  return (inits, body, store_src)

let prop_symexec_matches_vm =
  QCheck2.Test.make ~name:"symbolic executor agrees with the VM" ~count:100
    gen_diff_block (fun (inits, body, store_src) ->
      let n_regs = List.length inits in
      (* build: entry loads the inits; work = body + store g; fin halts *)
      let entry_instrs =
        List.mapi (fun r v -> Res_ir.Instr.Const (r, v)) inits
      in
      let work_instrs =
        body
        @ [
            Res_ir.Instr.Global_addr (n_regs, "g");
            Res_ir.Instr.Store (n_regs, 0, store_src);
          ]
      in
      let prog =
        Res_ir.Prog.v
          ~globals:[ { Res_ir.Prog.gname = "g"; gsize = 1 } ]
          [
            Res_ir.Func.v ~name:"main" ~params:[] ~entry:"entry"
              [
                Res_ir.Block.v "entry" entry_instrs (Res_ir.Instr.Jmp "work");
                Res_ir.Block.v "work" work_instrs (Res_ir.Instr.Jmp "fin");
                Res_ir.Block.v "fin" [] Res_ir.Instr.Halt;
              ];
          ]
      in
      (* the VM's truth *)
      let vm = Res_vm.Exec.run prog in
      let layout = Res_mem.Layout.of_prog prog in
      let g = Res_mem.Layout.globals_base in
      let vm_g = Res_mem.Memory.read vm.Res_vm.Exec.final.Res_vm.Exec.mem g in
      ignore layout;
      (* the symbolic executor on the same concrete seeds *)
      let seed = List.mapi (fun r v -> (r, Res_solver.Expr.const v)) inits in
      let rq =
        request prog ~func:"main" ~block:"work" ~seed
          ~mode:(Symexec.Full { require_target = Some "fin" })
      in
      match run rq with
      | [ o ], _ ->
          let sym_g =
            match List.assoc_opt g (Symmem.final_writes o.Symexec.mem) with
            | Some e -> Res_solver.Expr.const_val (Res_solver.Simplify.norm e)
            | None -> None
          in
          sym_g = Some vm_g
      | outs, rejects ->
          QCheck2.Test.fail_report
            (Fmt.str "expected one outcome, got %d (%a)" (List.length outs)
               Fmt.(list ~sep:comma string)
               rejects))

(* A load through a free symbolic address falls back to the address pool.
   The pool filter keeps the first [max_addr_candidates] mapped, feasible
   addresses, and stops there: a pool that runs on past the last one kept
   yields the same outcomes and costs no extra solver query.  Unmapped
   addresses are skipped without a query. *)
let pool_prog =
  parse
    {|
global g 8
global h 8
func main() {
a:
  r1 = load r0[0]
  jmp b
b:
  halt
}
|}

let test_pool_filter_stops_at_cap () =
  let cap = Symexec.default_config.Symexec.max_addr_candidates in
  let g = Res_mem.Layout.globals_base in
  let h = g + 9 in
  let s = Res_solver.Expr.fresh_sym "addr" in
  (* g + 1 is mapped but infeasible; g + 8 is the guard word, 5 unmapped *)
  let pool =
    [ g + 8; g; g + 1; 5; g + 2; g + 3; g + 4; g + 5 ] @ List.init 8 (( + ) h)
  in
  let layout = Res_mem.Layout.of_prog pool_prog in
  let feasible a = a <> g + 1 && Res_mem.Layout.find_global layout a <> None in
  let expected = List.filteri (fun i _ -> i < cap) (List.filter feasible pool) in
  let loaded addr_pool =
    let open Res_solver in
    let q0 = Solver.queries () in
    let outs, _ =
      run
        (request pool_prog ~func:"main" ~block:"a"
           ~seed:[ (0, Expr.Sym s) ]
           ~ambient:[ Expr.ne (Expr.Sym s) (Expr.const (g + 1)) ]
           ~addr_pool ~mode:(Symexec.Full { require_target = Some "b" }))
    in
    ( List.concat_map (fun o -> ISet.elements o.Symexec.read_before_write) outs,
      Solver.queries () - q0 )
  in
  let addrs, queries = loaded pool in
  check (Alcotest.list int_t) "the full filter's first feasible addresses"
    expected addrs;
  (* the pool up to the last address kept: one query per mapped address *)
  let upto_last =
    let last = List.nth expected (cap - 1) in
    let rec keep = function
      | [] -> []
      | a :: rest -> if a = last then [ a ] else a :: keep rest
    in
    keep pool
  in
  let addrs', queries' = loaded upto_last in
  check (Alcotest.list int_t) "same outcomes from the cut pool" addrs addrs';
  check int_t "no query past the last address kept" queries' queries;
  let _, base = loaded [] in
  check bool_t "at most cap + infeasible pool queries" true
    (queries - base <= cap + 1)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_symexec_matches_vm ]

let () =
  Alcotest.run "res_symex"
    [
      ( "full blocks",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "wrong target rejected" `Quick
            test_wrong_target_rejected;
          Alcotest.test_case "pre-register minting" `Quick test_pre_reg_minting;
        ] );
      ( "branching",
        [
          Alcotest.test_case "symbolic fork" `Quick test_branch_forks_on_symbolic;
          Alcotest.test_case "target constrains" `Quick
            test_branch_constrained_by_target;
          Alcotest.test_case "concrete seed" `Quick test_branch_concrete_seed;
        ] );
      ( "calls",
        [
          Alcotest.test_case "inlined forward" `Quick test_call_inlined;
          Alcotest.test_case "inlining disabled" `Quick
            test_call_inlining_disabled;
        ] );
      ( "partial/crash",
        [
          Alcotest.test_case "div-by-zero site" `Quick test_partial_crash;
          Alcotest.test_case "crash in callee" `Quick test_partial_crash_in_callee;
          Alcotest.test_case "unreachable stack spec" `Quick
            test_partial_wrong_stack_never_stops;
        ] );
      ( "journals",
        [
          Alcotest.test_case "inputs" `Quick test_inputs_journaled;
          Alcotest.test_case "alloc plan" `Quick test_alloc_plan;
          Alcotest.test_case "alloc without plan" `Quick
            test_alloc_without_plan_rejected;
          Alcotest.test_case "dynamic alloc" `Quick test_dynamic_alloc;
          Alcotest.test_case "lock constraints" `Quick test_lock_constraints;
          Alcotest.test_case "read-before-write" `Quick
            test_read_before_write_tracking;
          Alcotest.test_case "pre-memory symbol names" `Quick test_pre_mem_name;
        ] );
      ( "addresses",
        [
          Alcotest.test_case "pool filter stops at the cap" `Quick
            test_pool_filter_stops_at_cap;
        ] );
      ("properties", qcheck_cases);
    ]
