(* Unit and property tests for the MiniIR library: instruction metadata,
   blocks, CFG construction, the builder DSL, the assembler, and the
   validator. *)

open Res_ir

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_list = Alcotest.(list string)

(* A small two-function program used across several cases. *)
let sample_src =
  {|
# sample program
global counter 1
global buf 4

func main() {
entry:
  r0 = const 3
  r1 = call double(r0)
  r2 = global counter
  store r2[0] = r1
  br r1, big, small
big:
  r3 = const 1
  jmp done
small:
  r3 = const 0
  jmp done
done:
  assert r3, "must be big"
  halt
}

func double(r0) {
entry:
  r1 = add r0, r0
  ret r1
}
|}

let sample () = Parser.parse sample_src

(* --- instruction metadata --- *)

let test_defs_uses () =
  check (Alcotest.option int_t) "defs of binop" (Some 2)
    (Instr.defs (Instr.Binop (Instr.Add, 2, 0, 1)));
  check (Alcotest.list int_t) "uses of binop" [ 0; 1 ]
    (Instr.uses (Instr.Binop (Instr.Add, 2, 0, 1)));
  check (Alcotest.option int_t) "defs of store" None
    (Instr.defs (Instr.Store (1, 0, 2)));
  check (Alcotest.list int_t) "uses of store" [ 1; 2 ]
    (Instr.uses (Instr.Store (1, 0, 2)));
  check (Alcotest.list int_t) "uses of call" [ 4; 5 ]
    (Instr.uses (Instr.Call (Some 1, "f", [ 4; 5 ])));
  check (Alcotest.option int_t) "defs of void call" None
    (Instr.defs (Instr.Call (None, "f", [])));
  check (Alcotest.list int_t) "term_uses of br" [ 7 ]
    (Instr.term_uses (Instr.Br (7, "a", "b")));
  check string_list "targets of br" [ "a"; "b" ]
    (Instr.term_targets (Instr.Br (7, "a", "b")));
  check string_list "targets of br same label" [ "a" ]
    (Instr.term_targets (Instr.Br (7, "a", "a")))

let test_eval_binop () =
  check int_t "add" 7 (Instr.eval_binop Instr.Add 3 4);
  check int_t "sub" (-1) (Instr.eval_binop Instr.Sub 3 4);
  check int_t "mul" 12 (Instr.eval_binop Instr.Mul 3 4);
  check int_t "div" 2 (Instr.eval_binop Instr.Div 9 4);
  check int_t "rem" 1 (Instr.eval_binop Instr.Rem 9 4);
  check int_t "eq true" 1 (Instr.eval_binop Instr.Eq 5 5);
  check int_t "eq false" 0 (Instr.eval_binop Instr.Eq 5 6);
  check int_t "lt" 1 (Instr.eval_binop Instr.Lt 5 6);
  check int_t "ge" 0 (Instr.eval_binop Instr.Ge 5 6);
  check int_t "and" 4 (Instr.eval_binop Instr.And 6 12);
  check int_t "shl" 40 (Instr.eval_binop Instr.Shl 5 3);
  check int_t "shr" 5 (Instr.eval_binop Instr.Shr 40 3);
  check int_t "not zero" 1 (Instr.eval_unop Instr.Not 0);
  check int_t "not nonzero" 0 (Instr.eval_unop Instr.Not 42);
  check int_t "neg" (-5) (Instr.eval_unop Instr.Neg 5)

(* --- blocks --- *)

let test_block_live_in () =
  (* r0 read before def; r1 defined then read; r2 only defined. *)
  let b =
    Block.v "b"
      [
        Instr.Binop (Instr.Add, 1, 0, 0);
        Instr.Mov (2, 1);
        Instr.Const (1, 5);
      ]
      (Instr.Ret (Some 2))
  in
  check (Alcotest.list int_t) "live_in" [ 0 ] (Block.live_in_regs b);
  check (Alcotest.list int_t) "defined" [ 1; 2 ] (Block.defined_regs b);
  check (Alcotest.list int_t) "used" [ 0; 1; 2 ] (Block.used_regs b)

let test_block_live_in_term () =
  (* a register only read by the terminator is live-in *)
  let b = Block.v "b" [] (Instr.Br (9, "x", "y")) in
  check (Alcotest.list int_t) "live_in via term" [ 9 ] (Block.live_in_regs b)

(* --- stored register sets --- *)

(* Every block's defined and used sets and every function's register
   list equal what the old per-call code (Regs_ref) computes. *)
let regs_match (p : Prog.t) =
  List.for_all
    (fun (f : Func.t) ->
      Func.all_regs f = Regs_ref.all_regs f
      && List.for_all
           (fun (b : Block.t) ->
             Block.defined_regs b = Regs_ref.defined_regs b
             && Block.used_regs b = Regs_ref.used_regs b)
           f.blocks)
    p.Prog.funcs

let check_regs what p =
  List.iter
    (fun (f : Func.t) ->
      check (Alcotest.list int_t)
        (Printf.sprintf "%s %s all_regs" what f.name)
        (Regs_ref.all_regs f) (Func.all_regs f);
      List.iter
        (fun (b : Block.t) ->
          let where = Printf.sprintf "%s %s:%s" what f.name b.label in
          check (Alcotest.list int_t) (where ^ " defined")
            (Regs_ref.defined_regs b) (Block.defined_regs b);
          check (Alcotest.list int_t) (where ^ " used")
            (Regs_ref.used_regs b) (Block.used_regs b))
        f.blocks)
    p.Prog.funcs

let test_regs_workloads () =
  List.iter
    (fun (w : Res_workloads.Truth.t) ->
      check_regs w.Res_workloads.Truth.w_name w.Res_workloads.Truth.w_prog)
    Res_workloads.Workloads.all;
  (* the corpus families: the bug-report corpus, the same-stack pair and
     long executions of several lengths *)
  List.iter
    (fun (r : Res_workloads.Corpus.report) ->
      check_regs "corpus" r.Res_workloads.Corpus.r_prog)
    (Res_workloads.Corpus.generate ());
  check_regs "same-stack race" Res_workloads.Corpus.same_stack_race;
  check_regs "same-stack sign" Res_workloads.Corpus.same_stack_sign;
  List.iter
    (fun n ->
      check_regs (Printf.sprintf "long-exec %d" n)
        (Res_workloads.Long_exec.workload_n n).Res_workloads.Truth.w_prog)
    [ 50; 55; 59 ]

let test_regs_edges () =
  (* a parameter no block names, a register only the terminator reads,
     an empty block, a negative register, repeats *)
  let f =
    Func.v ~name:"f" ~params:[ 7; 3 ] ~entry:"a"
      [
        Block.v "a"
          [ Instr.Const (1, 2); Instr.Const (1, 3) ]
          (Instr.Br (9, "b", "c"));
        Block.v "b" [] (Instr.Ret (Some 4));
        Block.v "c" [ Instr.Binop (Instr.Add, -2, 5, 5) ] (Instr.Jmp "a");
      ]
  in
  let p = Prog.v ~globals:[] [ f ] in
  check_regs "edges" p;
  check (Alcotest.list int_t) "all_regs" [ -2; 1; 3; 4; 5; 7; 9 ]
    (Func.all_regs f);
  check (Alcotest.list int_t) "terminator use" [ 9 ]
    (Block.used_regs (Func.block f "a"));
  check (Alcotest.list int_t) "defined once" [ 1 ]
    (Block.defined_regs (Func.block f "a"))

(* --- CFG --- *)

let test_cfg_preds () =
  let p = sample () in
  let cfg = Cfg.of_prog p in
  check string_list "preds of done" [ "big"; "small" ]
    (Cfg.predecessors cfg ~func:"main" ~label:"done");
  check string_list "preds of entry" []
    (Cfg.predecessors cfg ~func:"main" ~label:"entry");
  check string_list "succs of entry" [ "big"; "small" ]
    (Cfg.successors cfg ~func:"main" ~label:"entry");
  let sites = Cfg.call_sites_of cfg "double" in
  check int_t "one call site" 1 (List.length sites);
  let s = List.hd sites in
  check Alcotest.string "call site func" "main" s.Cfg.in_func;
  check Alcotest.string "call site block" "entry" s.Cfg.in_block;
  check int_t "call site idx" 1 s.Cfg.at_idx;
  check string_list "no spawn sites" []
    (List.map (fun (s : Cfg.site) -> s.in_func) (Cfg.spawn_sites_of cfg "double"))

(* --- builder --- *)

let test_builder_roundtrip () =
  let open Builder in
  let b = create () in
  global b "g" 2;
  let f = func b "main" ~params:0 in
  let entry = block f "entry" in
  let r1 = fresh f in
  let r2 = fresh f in
  const entry r1 21;
  add entry r2 r1 r1;
  let g = fresh f in
  global_addr entry g "g";
  store entry g 0 r2;
  halt entry;
  let p = finish b in
  let printed = Prog.to_string p in
  let p' = Parser.parse printed in
  check bool_t "builder print/parse round-trip" true (Prog.equal p p')

let test_builder_errors () =
  let open Builder in
  Alcotest.check_raises "missing terminator"
    (Invalid_argument "Builder.finish: block b lacks a terminator")
    (fun () ->
      let b = create () in
      let f = func b "main" ~params:0 in
      let _bb = block f "b" in
      ignore (finish b));
  Alcotest.check_raises "two terminators"
    (Invalid_argument "Builder: two terminators in b")
    (fun () ->
      let b = create () in
      let f = func b "main" ~params:0 in
      let bb = block f "b" in
      halt bb;
      halt bb)

(* --- parser --- *)

let test_parse_roundtrip () =
  let p = sample () in
  let p' = Parser.parse (Prog.to_string p) in
  check bool_t "print/parse round-trip" true (Prog.equal p p')

let test_parse_string_escapes () =
  (* every byte [%S] escapes: CR, NUL and a byte above 127 as well as
     quote, backslash, tab, newline and backspace *)
  let msg = "cr\r nul\000 hi\200 q\" bs\\ tab\t nl\n bs\b" in
  let src =
    Fmt.str "func main() {\nentry:\n  r0 = const 1\n  assert r0, %S\n  abort %S\n}\n"
      msg msg
  in
  let p = Parser.parse src in
  let p' = Parser.parse (Prog.to_string p) in
  check bool_t "print/parse round-trip" true (Prog.equal p p');
  let b = Func.entry_block (Prog.main p) in
  check bool_t "assert message byte-equal" true
    (Array.mem (Instr.Assert (0, msg)) b.Block.instrs);
  check bool_t "abort message byte-equal" true (b.Block.term = Instr.Abort msg);
  List.iter
    (fun lit ->
      match Parser.parse_result (Fmt.str "func main() { e: abort \"%s\" }" lit) with
      | Ok _ -> Alcotest.failf "%S must not parse" lit
      | Error _ -> ())
    [ "\\256"; "\\999"; "\\12"; "\\1x1" ]

let test_parse_all_instrs () =
  let src =
    {|
global g 1
func main() {
entry:
  r0 = const -7
  r1 = mov r0
  r2 = add r0, r1
  r3 = not r2
  r4 = global g
  r5 = load r4[0]
  store r4[0] = r5
  r6 = const 3
  r7 = alloc r6
  free r7
  r8 = input net
  lock r4
  unlock r4
  r9 = spawn worker(r6)
  join r9
  r10 = call worker(r6)
  call helper()
  assert r6, "positive"
  log "tag", r6
  nop
  br r6, a, b
a:
  jmp b
b:
  ret
}
func worker(r0) {
entry:
  ret r0
}
func helper() {
entry:
  halt
}
|}
  in
  let p = Parser.parse src in
  let p' = Parser.parse (Prog.to_string p) in
  check bool_t "all-instruction round-trip" true (Prog.equal p p');
  check int_t "three functions" 3 (List.length p.Prog.funcs)

let test_parse_errors () =
  let bad fragment =
    match Parser.parse_result fragment with
    | Ok _ -> Alcotest.failf "expected parse failure for %S" fragment
    | Error _ -> ()
  in
  bad "func main() { entry: r0 = bogus r1 halt }";
  bad "func main() { entry: r0 = const }";
  bad "func main() { entry: }";
  bad "func main() {}";
  bad "what is this";
  bad "func main() { entry: halt";
  bad "global g";
  (* duplicate structures are rejected via Prog/Func validation *)
  bad "func main() { e: halt } func main() { e: halt }";
  bad "global g 1 global g 2 func main() { e: halt }";
  bad "global g 0 func main() { e: halt }"

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_parse_line_numbers () =
  match Parser.parse_result "func main() {\nentry:\n  r0 = wat r1\n  halt\n}" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error msg -> check bool_t "mentions line 3" true (contains_sub ~sub:"line 3" msg)

(* --- validator --- *)

let test_validate_ok () =
  check (Alcotest.list Alcotest.string) "sample program valid" []
    (List.map (fun (e : Validate.error) -> e.what) (Validate.check (sample ())))

let test_validate_catches () =
  let errs_of src = Validate.check (Parser.parse src) in
  let has_error src =
    match errs_of src with [] -> false | _ :: _ -> true
  in
  check bool_t "missing branch target" true
    (has_error "func main() { e: jmp nowhere }");
  check bool_t "unknown callee" true
    (has_error "func main() { e: call ghost() halt }");
  check bool_t "arity mismatch" true
    (has_error
       "func main() { e: r0 = const 1 call f(r0) halt } func f() { e: halt }");
  check bool_t "unknown global" true
    (has_error "func main() { e: r0 = global nope halt }");
  check bool_t "no main" true (has_error "func other() { e: halt }");
  check bool_t "main with params rejected" true
    (match
       Validate.check
         (Prog.v ~globals:[]
            [
              Func.v ~name:"main" ~params:[ 0 ] ~entry:"e"
                [ Block.v "e" [] Res_ir.Instr.Halt ];
            ])
     with
    | [] -> false
    | _ -> true)

(* --- qcheck properties --- *)

(* Random straight-line arithmetic programs: the printer and parser must
   round-trip on every one of them. *)
let gen_arith_prog =
  let open QCheck2.Gen in
  let binop =
    oneofl
      Instr.[ Add; Sub; Mul; And; Or; Xor; Eq; Ne; Lt; Le; Gt; Ge; Shl; Shr ]
  in
  let* n_instrs = int_range 1 30 in
  let* instrs =
    list_repeat n_instrs
      (let* dst = int_range 0 15 in
       let* choice = int_range 0 3 in
       match choice with
       | 0 ->
           let* v = int_range (-1000) 1000 in
           return (Instr.Const (dst, v))
       | 1 ->
           let* a = int_range 0 15 in
           return (Instr.Mov (dst, a))
       | 2 ->
           let* op = binop in
           let* a = int_range 0 15 in
           let* b = int_range 0 15 in
           return (Instr.Binop (op, dst, a, b))
       | _ ->
           let* op = oneofl Instr.[ Not; Neg ] in
           let* a = int_range 0 15 in
           return (Instr.Unop (op, dst, a)))
  in
  let f =
    Func.v ~name:"main" ~params:[] ~entry:"entry"
      [ Block.v "entry" instrs Instr.Halt ]
  in
  return (Prog.v ~globals:[] [ f ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse round-trip (random arith)" ~count:200
    gen_arith_prog (fun p ->
      match Parser.parse_result (Prog.to_string p) with
      | Ok p' -> Prog.equal p p'
      | Error msg -> QCheck2.Test.fail_report msg)

let prop_validate_random =
  QCheck2.Test.make ~name:"random arith programs validate" ~count:100
    gen_arith_prog (fun p -> Validate.check p = [])

let prop_cfg_pred_succ_dual =
  (* successors and predecessors are duals on the sample program *)
  QCheck2.Test.make ~name:"cfg pred/succ duality" ~count:1 QCheck2.Gen.unit
    (fun () ->
      let p = sample () in
      let cfg = Cfg.of_prog p in
      List.for_all
        (fun (f : Func.t) ->
          List.for_all
            (fun (b : Block.t) ->
              List.for_all
                (fun s ->
                  List.mem b.label (Cfg.predecessors cfg ~func:f.name ~label:s))
                (Cfg.successors cfg ~func:f.name ~label:b.label))
            f.blocks)
        p.Prog.funcs)

(* Random programs with parameters and a branching terminator: the
   stored register sets equal the reference. *)
let prop_regs_random =
  let gen =
    let open QCheck2.Gen in
    let* p = gen_arith_prog in
    let* params = list_size (int_range 0 4) (int_range 0 20) in
    let* cond = int_range 0 20 in
    let main = Prog.main p in
    let entry = Func.entry_block main in
    let f =
      Func.v ~name:"main" ~params:(List.sort_uniq compare params) ~entry:"entry"
        [
          Block.v "entry" (Array.to_list entry.Block.instrs)
            (Instr.Br (cond, "entry", "out"));
          Block.v "out" [] Instr.Halt;
        ]
    in
    return (Prog.v ~globals:[] [ f ])
  in
  QCheck2.Test.make ~name:"stored register sets = reference (random)"
    ~count:200 gen regs_match

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_validate_random;
      prop_cfg_pred_succ_dual;
      prop_regs_random;
    ]

let () =
  Alcotest.run "res_ir"
    [
      ( "instr",
        [
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "eval_binop" `Quick test_eval_binop;
        ] );
      ( "block",
        [
          Alcotest.test_case "live_in" `Quick test_block_live_in;
          Alcotest.test_case "live_in via terminator" `Quick
            test_block_live_in_term;
          Alcotest.test_case "register sets = reference (programs)" `Quick
            test_regs_workloads;
          Alcotest.test_case "register sets = reference (edges)" `Quick
            test_regs_edges;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "predecessors" `Quick test_cfg_preds;
        ] );
      ( "builder",
        [
          Alcotest.test_case "round-trip" `Quick test_builder_roundtrip;
          Alcotest.test_case "errors" `Quick test_builder_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "all instructions" `Quick test_parse_all_instrs;
          Alcotest.test_case "string escapes round-trip" `Quick
            test_parse_string_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error line numbers" `Quick test_parse_line_numbers;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts sample" `Quick test_validate_ok;
          Alcotest.test_case "catches violations" `Quick test_validate_catches;
        ] );
      ("properties", qcheck_cases);
    ]
