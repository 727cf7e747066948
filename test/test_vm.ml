(* Unit and property tests for MiniVM: instruction semantics, calls,
   threads and synchronization, crash kinds, coredumps, breadcrumbs,
   fault injection, and determinism. *)

open Res_vm

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let parse = Res_ir.Parser.parse

let run ?config src = Exec.run ?config (parse src)

let run_crash ?config src =
  match (run ?config src).outcome with
  | Exec.Crashed c -> c
  | Exec.Exited -> Alcotest.fail "expected crash, program exited"
  | Exec.Out_of_fuel -> Alcotest.fail "expected crash, ran out of fuel"

let dump_of ?config src =
  match Exec.run_to_coredump ?config (parse src) with
  | Some d, _ -> d
  | None, _ -> Alcotest.fail "expected coredump"

let final_global ?config src name =
  let r = run ?config src in
  let layout = r.final.Exec.layout in
  Res_mem.Memory.read r.final.Exec.mem (Res_mem.Layout.global_base layout name)

(* --- sequential semantics --- *)

let test_arith_and_store () =
  let v =
    final_global
      {|
global out 1
func main() {
e:
  r0 = const 6
  r1 = const 7
  r2 = mul r0, r1
  r3 = global out
  store r3[0] = r2
  halt
}
|}
      "out"
  in
  check int_t "6*7 stored" 42 v

let test_load_store_offsets () =
  let v =
    final_global
      {|
global arr 3
func main() {
e:
  r0 = global arr
  r1 = const 5
  store r0[2] = r1
  r2 = load r0[2]
  r3 = add r2, r2
  store r0[0] = r3
  halt
}
|}
      "arr"
  in
  check int_t "load/store with offsets" 10 v

let test_branching () =
  let v =
    final_global
      {|
global out 1
func main() {
e:
  r0 = const 3
  r1 = const 5
  r2 = lt r0, r1
  br r2, yes, no
yes:
  r3 = const 111
  jmp done
no:
  r3 = const 222
  jmp done
done:
  r4 = global out
  store r4[0] = r3
  halt
}
|}
      "out"
  in
  check int_t "branch taken" 111 v

let test_call_ret () =
  let v =
    final_global
      {|
global out 1
func main() {
e:
  r0 = const 5
  r1 = call fact(r0)
  r2 = global out
  store r2[0] = r1
  halt
}
func fact(r0) {
e:
  r1 = const 1
  r2 = le r0, r1
  br r2, base, rec
base:
  ret r1
rec:
  r3 = sub r0, r1
  r4 = call fact(r3)
  r5 = mul r0, r4
  ret r5
}
|}
      "out"
  in
  check int_t "recursive factorial" 120 v

let test_void_return_yields_zero () =
  let v =
    final_global
      {|
global out 1
func main() {
e:
  r0 = call f()
  r1 = const 9
  r2 = add r0, r1
  r3 = global out
  store r3[0] = r2
  halt
}
func f() { e: ret }
|}
      "out"
  in
  check int_t "void call returns 0" 9 v

let test_heap_roundtrip () =
  let v =
    final_global
      {|
global out 1
func main() {
e:
  r0 = const 4
  r1 = alloc r0
  r2 = const 33
  store r1[3] = r2
  r3 = load r1[3]
  r4 = global out
  store r4[0] = r3
  free r1
  halt
}
|}
      "out"
  in
  check int_t "heap store/load" 33 v

(* --- crash kinds --- *)

let crash_src_and_kind =
  [
    ( "div by zero",
      {|
func main() {
e:
  r0 = const 1
  r1 = const 0
  r2 = div r0, r1
  halt
}
|},
      fun k -> k = Crash.Div_by_zero );
    ( "null deref",
      {|
func main() {
e:
  r0 = const 0
  r1 = load r0[0]
  halt
}
|},
      fun k -> k = Crash.Seg_fault 0 );
    ( "global overflow",
      {|
global buf 2
func main() {
e:
  r0 = global buf
  r1 = const 7
  store r0[2] = r1
  halt
}
|},
      fun k -> match k with Crash.Global_overflow _ -> true | _ -> false );
    ( "heap overflow",
      {|
func main() {
e:
  r0 = const 2
  r1 = alloc r0
  r2 = const 1
  store r1[2] = r2
  halt
}
|},
      fun k -> match k with Crash.Out_of_bounds _ -> true | _ -> false );
    ( "use after free",
      {|
func main() {
e:
  r0 = const 2
  r1 = alloc r0
  free r1
  r2 = load r1[0]
  halt
}
|},
      fun k -> match k with Crash.Use_after_free _ -> true | _ -> false );
    ( "double free",
      {|
func main() {
e:
  r0 = const 2
  r1 = alloc r0
  free r1
  free r1
  halt
}
|},
      fun k -> match k with Crash.Double_free _ -> true | _ -> false );
    ( "invalid free",
      {|
func main() {
e:
  r0 = const 2
  r1 = alloc r0
  r2 = const 1
  r3 = add r1, r2
  free r3
  halt
}
|},
      fun k -> match k with Crash.Invalid_free _ -> true | _ -> false );
    ( "assert failure",
      {|
func main() {
e:
  r0 = const 0
  assert r0, "boom"
  halt
}
|},
      fun k -> k = Crash.Assert_fail "boom" );
    ( "abort",
      {|
func main() {
e:
  abort "fatal"
}
|},
      fun k -> k = Crash.Abort_called "fatal" );
    ( "unlock unheld",
      {|
global m 1
func main() {
e:
  r0 = global m
  unlock r0
  halt
}
|},
      fun k -> match k with Crash.Unlock_error _ -> true | _ -> false );
    ( "alloc error",
      {|
func main() {
e:
  r0 = const 0
  r1 = alloc r0
  halt
}
|},
      fun k -> k = Crash.Alloc_error 0 );
  ]

let crash_cases =
  List.map
    (fun (name, src, pred) ->
      Alcotest.test_case name `Quick (fun () ->
          let c = run_crash src in
          check bool_t (name ^ " kind") true (pred c.Crash.kind)))
    crash_src_and_kind

(* --- threads and synchronization --- *)

let counter_src =
  {|
global m 1
global counter 1
func main() {
e:
  r0 = spawn worker()
  r1 = spawn worker()
  join r0
  join r1
  halt
}
func worker() {
e:
  r0 = global m
  lock r0
  jmp crit
crit:
  r1 = global counter
  r2 = load r1[0]
  r3 = const 1
  r4 = add r2, r3
  store r1[0] = r4
  unlock r0
  ret
}
|}

let test_spawn_join_lock () =
  (* under any schedule the locked counter reaches exactly 2 *)
  List.iter
    (fun seed ->
      let config =
        { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
      in
      let v = final_global ~config counter_src "counter" in
      check int_t (Fmt.str "locked counter, seed %d" seed) 2 v)
    [ 0; 1; 2; 3; 4; 42; 1337 ]

let deadlock_src =
  {|
global m1 1
global m2 1
func main() {
e:
  r0 = spawn left()
  r1 = spawn right()
  join r0
  join r1
  halt
}
func left() {
e:
  r0 = global m1
  lock r0
  jmp second
second:
  r1 = global m2
  lock r1
  unlock r1
  unlock r0
  ret
}
func right() {
e:
  r0 = global m2
  lock r0
  jmp second
second:
  r1 = global m1
  lock r1
  unlock r1
  unlock r0
  ret
}
|}

let test_deadlock_detected () =
  (* force: left grabs m1, right grabs m2, then both block *)
  let found =
    List.exists
      (fun seed ->
        let config =
          { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
        in
        match (run ~config deadlock_src).outcome with
        | Exec.Crashed { kind = Crash.Deadlock _; _ } -> true
        | _ -> false)
      (List.init 50 Fun.id)
  in
  check bool_t "some schedule deadlocks" true found

let test_deadlock_forced_schedule () =
  (* The fixed schedule interleaves the two workers so each holds one lock. *)
  let config =
    {
      (Exec.default_config ()) with
      sched = Sched.create (Sched.Fixed [ 0; 1; 2; 1; 2; 0 ]);
    }
  in
  match (run ~config deadlock_src).outcome with
  | Exec.Crashed { kind = Crash.Deadlock tids; _ } ->
      (* main is blocked on join, so it is part of the deadlocked set *)
      check (Alcotest.list int_t) "blocked tids" [ 0; 1; 2 ] tids
  | _ -> Alcotest.fail "expected forced deadlock"

let test_join_waits () =
  let v =
    final_global
      {|
global out 1
func main() {
e:
  r0 = spawn slow()
  join r0
  r1 = global out
  r2 = load r1[0]
  r3 = const 1
  r4 = add r2, r3
  store r1[0] = r4
  halt
}
func slow() {
e:
  r0 = global out
  r1 = const 10
  store r0[0] = r1
  ret
}
|}
      "out"
  in
  check int_t "join ordered after worker" 11 v

(* --- inputs, faults, breadcrumbs --- *)

let test_scripted_inputs () =
  let config =
    { (Exec.default_config ()) with oracle = Oracle.scripted [ 11; 31 ] }
  in
  let v =
    final_global ~config
      {|
global out 1
func main() {
e:
  r0 = input net
  r1 = input file
  r2 = add r0, r1
  r3 = global out
  store r3[0] = r2
  halt
}
|}
      "out"
  in
  check int_t "scripted inputs" 42 v

let test_fault_bit_flip () =
  (* Without the fault the assert passes; the flip makes it fail. *)
  let src =
    {|
global x 1
func main() {
e:
  r0 = global x
  r1 = const 4
  store r0[0] = r1
  jmp chk
chk:
  r2 = load r0[0]
  r3 = const 4
  r4 = eq r2, r3
  assert r4, "x intact"
  halt
}
|}
  in
  (match (run src).outcome with
  | Exec.Exited -> ()
  | _ -> Alcotest.fail "clean run should exit");
  let prog = parse src in
  let layout = Res_mem.Layout.of_prog prog in
  let addr = Res_mem.Layout.global_base layout "x" in
  let config =
    {
      (Exec.default_config ()) with
      fault = Fault.bit_flip ~step:4 ~addr ~bit:0;
    }
  in
  match (Exec.run ~config prog).outcome with
  | Exec.Crashed { kind = Crash.Assert_fail "x intact"; _ } -> ()
  | _ -> Alcotest.fail "bit flip should fail the assert"

let test_fault_alu () =
  let src =
    {|
global out 1
func main() {
e:
  r0 = const 2
  r1 = const 2
  r2 = add r0, r1
  r3 = global out
  store r3[0] = r2
  halt
}
|}
  in
  let config =
    { (Exec.default_config ()) with fault = Fault.alu_error ~step:2 ~delta:1 }
  in
  let v = final_global ~config src "out" in
  check int_t "2+2=5 under ALU fault" 5 v

let test_lbr_and_logs () =
  let d =
    dump_of
      {|
func main() {
e:
  r0 = const 1
  log "phase", r0
  jmp a
a:
  jmp b
b:
  abort "end"
}
|}
  in
  let branches = Tracer.branches d.Coredump.tracer in
  check int_t "two branches" 2 (List.length branches);
  (match branches with
  | b1 :: b2 :: _ ->
      check Alcotest.string "latest branch dst" "b" b1.Tracer.br_to;
      check Alcotest.string "older branch dst" "a" b2.Tracer.br_to
  | _ -> Alcotest.fail "missing branches");
  match Tracer.logs d.Coredump.tracer with
  | [ e ] ->
      check Alcotest.string "log tag" "phase" e.Tracer.log_tag;
      check int_t "log value" 1 e.Tracer.log_value
  | _ -> Alcotest.fail "expected one log entry"

let test_lbr_depth_bound () =
  let src =
    {|
func main() {
e:
  r0 = const 20
  jmp loop
loop:
  r1 = const 1
  r0 = sub r0, r1
  br r0, loop, out
out:
  abort "end"
}
|}
  in
  let config = { (Exec.default_config ()) with lbr_depth = 4 } in
  let d, _ = Exec.run_to_coredump ~config (parse src) in
  match d with
  | Some d ->
      check int_t "ring capped" 4
        (List.length (Tracer.branches d.Coredump.tracer))
  | None -> Alcotest.fail "expected coredump"

(* --- coredumps and determinism --- *)

let racy_src =
  (* classic lost-update race: read, reschedule, write *)
  {|
global counter 1
global m 1
func main() {
e:
  r0 = spawn worker()
  r1 = spawn worker()
  join r0
  join r1
  jmp chk
chk:
  r2 = global counter
  r3 = load r2[0]
  r4 = const 2
  r5 = eq r3, r4
  assert r5, "no lost update"
  halt
}
func worker() {
e:
  r0 = global counter
  r1 = load r0[0]
  jmp w
w:
  r2 = const 1
  r3 = add r1, r2
  store r0[0] = r3
  ret
}
|}

let test_race_manifests_under_some_schedule () =
  let crashes seed =
    let config =
      { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
    in
    match (run ~config racy_src).outcome with
    | Exec.Crashed { kind = Crash.Assert_fail _; _ } -> true
    | _ -> false
  in
  let seeds = List.init 100 Fun.id in
  check bool_t "some schedule loses an update" true (List.exists crashes seeds);
  check bool_t "some schedule is correct" true
    (List.exists (fun s -> not (crashes s)) seeds)

let test_determinism_same_seed () =
  let crash_seed =
    List.find
      (fun seed ->
        let config =
          { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
        in
        match (run ~config racy_src).outcome with
        | Exec.Crashed _ -> true
        | _ -> false)
      (List.init 200 Fun.id)
  in
  let dump () =
    let config =
      {
        (Exec.default_config ()) with
        sched = Sched.create (Sched.Seeded crash_seed);
      }
    in
    dump_of ~config racy_src
  in
  let d1 = dump () and d2 = dump () in
  check bool_t "same seed, same failure state" true
    (Coredump.same_failure_state d1 d2)

let test_replay_fixed_schedule () =
  (* record the schedule of a crashing run, then replay it as Fixed *)
  let seed =
    List.find
      (fun seed ->
        let config =
          { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
        in
        match (run ~config racy_src).outcome with
        | Exec.Crashed _ -> true
        | _ -> false)
      (List.init 200 Fun.id)
  in
  let config =
    { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
  in
  let d1, r1 = Exec.run_to_coredump ~config (parse racy_src) in
  let config' =
    { (Exec.default_config ()) with sched = Sched.create (Sched.Fixed r1.Exec.schedule) }
  in
  let d2, _ = Exec.run_to_coredump ~config:config' (parse racy_src) in
  match (d1, d2) with
  | Some d1, Some d2 ->
      check bool_t "schedule replay reproduces failure state" true
        (Coredump.same_failure_state d1 d2)
  | _ -> Alcotest.fail "expected coredumps from both runs"

let test_coredump_contents () =
  let d =
    dump_of
      {|
global g 1
func main() {
e:
  r0 = const 77
  r1 = global g
  store r1[0] = r0
  r2 = call f(r0)
  halt
}
func f(r0) {
e:
  r1 = const 0
  r2 = div r0, r1
  ret r2
}
|}
  in
  check Alcotest.string "crash in f" "f" d.Coredump.crash.Crash.pc.Res_ir.Pc.func;
  let stack = Coredump.crash_stack d in
  check int_t "two frames" 2 (List.length stack);
  (match stack with
  | (f1, _, _) :: (f2, _, _) :: _ ->
      check Alcotest.string "inner frame" "f" f1;
      check Alcotest.string "outer frame" "main" f2
  | _ -> Alcotest.fail "bad stack");
  let layout = Res_mem.Layout.of_prog (parse "global g 1 func main() { e: halt }") in
  ignore layout;
  let gaddr = Res_mem.Layout.globals_base in
  check int_t "global value in dump" 77 (Coredump.read d gaddr)

let test_out_of_fuel () =
  let config = { (Exec.default_config ()) with max_steps = 100 } in
  match
    (run ~config {|
func main() {
e:
  jmp e
}
|}).outcome
  with
  | Exec.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* [p] with every label one physical string per spelling, so that the
   two functions' [e] blocks are named by the very same string. *)
let intern_labels (p : Res_ir.Prog.t) =
  let seen = Hashtbl.create 8 in
  let one l =
    match Hashtbl.find_opt seen l with
    | Some l -> l
    | None ->
        Hashtbl.add seen l l;
        l
  in
  let term = function
    | Res_ir.Instr.Jmp l -> Res_ir.Instr.Jmp (one l)
    | Res_ir.Instr.Br (r, l1, l2) -> Res_ir.Instr.Br (r, one l1, one l2)
    | t -> t
  in
  Res_ir.Prog.v ~globals:p.globals
    (List.map
       (fun (f : Res_ir.Func.t) ->
         Res_ir.Func.v ~name:f.name ~params:f.params ~entry:(one f.entry)
           (List.map
              (fun (b : Res_ir.Block.t) ->
                Res_ir.Block.v (one b.label) (Array.to_list b.instrs) (term b.term))
              f.blocks))
       p.funcs)

(* A state rebuilt from a decoded coredump holds frames whose function
   and label strings were parsed from the dump, not shared with the
   program.  Cut the run at every step, round-trip the state through the
   dump codec, and the rebuilt state must step exactly as the original
   run does from there.  Both functions name their entry block [e]; the
   label-interned copy of the program must run the same events too. *)
let test_decoded_state_steps_as_original () =
  let parsed =
    parse
      {|
global out 1
func main() {
e:
  r0 = const 5
  r1 = call fact(r0)
  r2 = global out
  store r2[0] = r1
  halt
}
func fact(r0) {
e:
  r1 = const 1
  r2 = le r0, r1
  br r2, base, rec
base:
  ret r1
rec:
  r3 = sub r0, r1
  r4 = call fact(r3)
  r5 = mul r0, r4
  ret r5
}
|}
  in
  let traced max_steps =
    { (Exec.default_config ()) with max_steps; record_trace = true }
  in
  let events trace = List.map (Fmt.str "%a" Event.pp) trace in
  let whole = Exec.run ~config:(traced 1_000) parsed in
  let n = whole.final.Exec.steps in
  let check_prog name prog =
    check (Alcotest.list Alcotest.string) (name ^ ": whole run")
      (events whole.trace)
      (events (Exec.run ~config:(traced 1_000) prog).trace);
    for k = 1 to n - 1 do
      let cut = Exec.run ~config:(traced k) prog in
      let main = Exec.get_thread cut.final 0 in
      let d =
        Coredump_io.of_string
          (Coredump_io.to_string
             {
               Coredump.crash =
                 { Crash.kind = Crash.Abort_called "cut"; tid = 0; pc = Thread.pc main };
               mem = cut.final.Exec.mem;
               heap = cut.final.Exec.heap;
               threads = cut.final.Exec.threads;
               tracer = cut.final.Exec.tracer;
               steps = k;
             })
      in
      let fr = Thread.top (Coredump.thread d 0) in
      let block = Res_ir.Prog.block prog ~func:fr.Frame.func ~label:fr.Frame.block in
      check bool_t "decoded label is not the program's string" true
        (fr.Frame.block != block.Res_ir.Block.label);
      let st =
        Exec.make_state prog ~mem:d.Coredump.mem ~heap:d.Coredump.heap
          ~threads:d.Coredump.threads
      in
      st.Exec.steps <- k;
      let rest = Exec.run_state ~config:(traced 1_000) st in
      check (Alcotest.list Alcotest.string)
        (Fmt.str "%s: events after step %d" name k)
        (events (List.filter (fun (e : Event.t) -> e.step >= k) whole.trace))
        (events rest.trace);
      check bool_t "same outcome" true (rest.outcome = whole.outcome);
      check bool_t "same final memory" true
        (Res_mem.Memory.diff rest.final.Exec.mem whole.final.Exec.mem = [])
    done
  in
  let interned = intern_labels parsed in
  check bool_t "one string names both entry blocks" true
    ((Res_ir.Prog.func interned "main").entry == (Res_ir.Prog.func interned "fact").entry);
  check_prog "parsed" parsed;
  check_prog "interned" interned

(* --- frames, schedulers, oracles --- *)

module FIMap = Map.Make (Int)

let test_frame_regs_equal_semantics () =
  let base = { Frame.func = "f"; block = "b"; idx = 0;
               regs = FIMap.empty; ret_reg = None } in
  let a = Frame.write_reg base 0 1 in
  let b = Frame.write_reg (Frame.write_reg base 0 1) 3 0 in
  check bool_t "explicit zero equals absent" true (Frame.equal a b);
  let c = Frame.write_reg base 0 2 in
  check bool_t "different value differs" false (Frame.equal a c)

let test_sched_round_robin_cycles () =
  let s = Sched.create Sched.Round_robin in
  let picks = List.init 6 (fun _ -> Sched.pick s ~runnable:[ 0; 1; 2 ]) in
  check (Alcotest.list int_t) "cycles" [ 0; 1; 2; 0; 1; 2 ] picks

let test_sched_fixed_skips_unrunnable () =
  let s = Sched.create (Sched.Fixed [ 5; 1 ]) in
  (* 5 is not runnable: the entry is skipped with a round-robin fallback *)
  let first = Sched.pick s ~runnable:[ 0; 1 ] in
  check bool_t "fallback picks a runnable tid" true (List.mem first [ 0; 1 ]);
  let second = Sched.pick s ~runnable:[ 0; 1 ] in
  check int_t "then the script resumes" 1 second

let test_oracle_seeded_deterministic () =
  let a = Oracle.seeded ~seed:7 and b = Oracle.seeded ~seed:7 in
  let va = List.init 5 (fun _ -> a.Oracle.next Res_ir.Instr.Net) in
  let vb = List.init 5 (fun _ -> b.Oracle.next Res_ir.Instr.Net) in
  check (Alcotest.list int_t) "same seed, same stream" va vb;
  let c = Oracle.seeded ~seed:8 in
  let vc = List.init 5 (fun _ -> c.Oracle.next Res_ir.Instr.Net) in
  check bool_t "different seed differs" true (va <> vc)

let test_oracle_scripted_default () =
  let o = Oracle.scripted ~default:42 [ 1; 2 ] in
  let vs = List.init 4 (fun _ -> o.Oracle.next Res_ir.Instr.Net) in
  check (Alcotest.list int_t) "script then default" [ 1; 2; 42; 42 ] vs

(* --- coredump serialization --- *)

let test_coredump_io_roundtrip () =
  let seed =
    List.find
      (fun seed ->
        let config =
          { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
        in
        match (run ~config racy_src).outcome with
        | Exec.Crashed _ -> true
        | _ -> false)
      (List.init 200 Fun.id)
  in
  let config =
    { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
  in
  let d = dump_of ~config racy_src in
  let text = Coredump_io.to_string d in
  let d2 = Coredump_io.of_string text in
  check bool_t "failure state preserved" true (Coredump.same_failure_state d d2);
  check int_t "steps preserved" d.Coredump.steps d2.Coredump.steps;
  check bool_t "stable fixpoint" true
    (String.equal text (Coredump_io.to_string d2));
  check int_t "branches preserved"
    (List.length (Tracer.branches d.Coredump.tracer))
    (List.length (Tracer.branches d2.Coredump.tracer))

let test_coredump_io_heap_and_logs () =
  let d =
    dump_of
      {|
func main() {
e:
  r0 = const 3
  r1 = alloc r0
  log "allocated", r1
  free r1
  r2 = const 2
  r3 = alloc r2
  r4 = load r1[0]
  halt
}
|}
  in
  let d2 = Coredump_io.of_string (Coredump_io.to_string d) in
  check bool_t "heap metadata preserved" true
    (Res_mem.Heap.equal d.Coredump.heap d2.Coredump.heap);
  (match Tracer.logs d2.Coredump.tracer with
  | [ e ] -> check Alcotest.string "log tag preserved" "allocated" e.Tracer.log_tag
  | _ -> Alcotest.fail "expected one log entry");
  check bool_t "uaf crash kind preserved" true
    (match d2.Coredump.crash.Crash.kind with
    | Crash.Use_after_free _ -> true
    | _ -> false)

let test_coredump_io_rejects_garbage () =
  List.iter
    (fun src ->
      match Coredump_io.of_string src with
      | exception Coredump_io.Bad_format _ -> ()
      | exception Res_ir.Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted garbage %S" src)
    [ ""; "coredump v2"; "coredump v1\nwat 3"; "coredump v1\nsteps 1" ]

(* --- qcheck properties --- *)

let prop_seeded_deterministic =
  QCheck2.Test.make ~name:"seeded runs are bit-deterministic" ~count:30
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let go () =
        let config =
          {
            (Exec.default_config ()) with
            sched = Sched.create (Sched.Seeded seed);
            record_trace = true;
          }
        in
        Exec.run ~config (parse racy_src)
      in
      let r1 = go () and r2 = go () in
      r1.Exec.schedule = r2.Exec.schedule
      && List.length r1.Exec.trace = List.length r2.Exec.trace
      && Res_mem.Memory.equal r1.Exec.final.Exec.mem r2.Exec.final.Exec.mem)

let prop_locked_counter_correct =
  QCheck2.Test.make ~name:"locked counter is schedule-independent" ~count:30
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let config =
        { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
      in
      final_global ~config counter_src "counter" = 2)

(* coredump serialization round-trips for dumps from arbitrary seeds *)
let prop_coredump_io_roundtrip =
  QCheck2.Test.make ~name:"coredump io round-trips" ~count:40
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let config =
        { (Exec.default_config ()) with sched = Sched.create (Sched.Seeded seed) }
      in
      match Exec.run_to_coredump ~config (parse racy_src) with
      | None, _ -> true (* this seed produced a correct interleaving *)
      | Some d, _ ->
          let d2 = Coredump_io.of_string (Coredump_io.to_string d) in
          Coredump.same_failure_state d d2
          && d.Coredump.steps = d2.Coredump.steps
          && String.equal (Coredump_io.to_string d) (Coredump_io.to_string d2))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_seeded_deterministic;
      prop_locked_counter_correct;
      prop_coredump_io_roundtrip;
    ]

let () =
  Alcotest.run "res_vm"
    [
      ( "sequential",
        [
          Alcotest.test_case "arith + store" `Quick test_arith_and_store;
          Alcotest.test_case "load/store offsets" `Quick test_load_store_offsets;
          Alcotest.test_case "branching" `Quick test_branching;
          Alcotest.test_case "call/ret recursion" `Quick test_call_ret;
          Alcotest.test_case "void return" `Quick test_void_return_yields_zero;
          Alcotest.test_case "heap round-trip" `Quick test_heap_roundtrip;
        ] );
      ("crashes", crash_cases);
      ( "threads",
        [
          Alcotest.test_case "spawn/join/lock" `Quick test_spawn_join_lock;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "forced deadlock" `Quick test_deadlock_forced_schedule;
          Alcotest.test_case "join ordering" `Quick test_join_waits;
        ] );
      ( "inputs/faults/breadcrumbs",
        [
          Alcotest.test_case "scripted inputs" `Quick test_scripted_inputs;
          Alcotest.test_case "bit flip fault" `Quick test_fault_bit_flip;
          Alcotest.test_case "ALU fault" `Quick test_fault_alu;
          Alcotest.test_case "LBR + logs" `Quick test_lbr_and_logs;
          Alcotest.test_case "LBR depth bound" `Quick test_lbr_depth_bound;
        ] );
      ( "components",
        [
          Alcotest.test_case "frame equality semantics" `Quick
            test_frame_regs_equal_semantics;
          Alcotest.test_case "round robin" `Quick test_sched_round_robin_cycles;
          Alcotest.test_case "fixed fallback" `Quick
            test_sched_fixed_skips_unrunnable;
          Alcotest.test_case "seeded oracle" `Quick
            test_oracle_seeded_deterministic;
          Alcotest.test_case "scripted oracle" `Quick test_oracle_scripted_default;
        ] );
      ( "coredump io",
        [
          Alcotest.test_case "round-trip" `Quick test_coredump_io_roundtrip;
          Alcotest.test_case "heap + logs" `Quick test_coredump_io_heap_and_logs;
          Alcotest.test_case "rejects garbage" `Quick
            test_coredump_io_rejects_garbage;
        ] );
      ( "coredumps",
        [
          Alcotest.test_case "race manifests" `Quick
            test_race_manifests_under_some_schedule;
          Alcotest.test_case "determinism per seed" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "schedule replay" `Quick test_replay_fixed_schedule;
          Alcotest.test_case "contents" `Quick test_coredump_contents;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "decoded state steps as the original" `Quick
            test_decoded_state_steps_as_original;
        ] );
      ("properties", qcheck_cases);
    ]
