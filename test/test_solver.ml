(* Unit and property tests for the constraint solver: expression algebra,
   the simplifier, the interval domain, and the solve/concretize API. *)

open Res_solver

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let sym name = Expr.fresh_sym name

(* --- expressions --- *)

let test_expr_basics () =
  let x = sym "x" in
  let e = Expr.add (Expr.Sym x) (Expr.const 3) in
  check int_t "eval" 10 (Expr.eval (fun _ -> 7) e);
  check bool_t "not concrete" false (Expr.is_concrete e);
  check bool_t "concrete" true (Expr.is_concrete (Expr.const 4));
  check int_t "one free sym" 1 (Expr.Sym_set.cardinal (Expr.syms e));
  let e' = Expr.subst_sym x 7 e in
  check bool_t "subst concretizes" true (Expr.is_concrete e');
  check int_t "subst value" 10 (Expr.eval (fun _ -> 0) e')

let test_expr_equal () =
  let x = sym "x" and y = sym "y" in
  check bool_t "same sym equal" true (Expr.equal (Expr.Sym x) (Expr.Sym x));
  check bool_t "distinct syms differ" false (Expr.equal (Expr.Sym x) (Expr.Sym y));
  check bool_t "structural" true
    (Expr.equal
       (Expr.add (Expr.Sym x) (Expr.const 1))
       (Expr.add (Expr.Sym x) (Expr.const 1)))

(* random expression generator over a fixed pool of syms *)
let pool = Array.init 4 (fun i -> Expr.fresh_sym (Fmt.str "q%d" i))

let gen_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        (let* n = int_range (-20) 20 in
         return (Expr.const n));
        (let* i = int_range 0 3 in
         return (Expr.Sym pool.(i)));
      ]
  in
  let safe_binops =
    Res_ir.Instr.[ Add; Sub; Mul; And; Or; Xor; Eq; Ne; Lt; Le; Gt; Ge ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        oneof
          [
            leaf;
            (let* op = oneofl safe_binops in
             let* a = self (depth - 1) in
             let* b = self (depth - 1) in
             return (Expr.Binop (op, a, b)));
            (let* op = oneofl Res_ir.Instr.[ Not; Neg ] in
             let* a = self (depth - 1) in
             return (Expr.Unop (op, a)));
            (let* c = self (depth - 1) in
             let* a = self (depth - 1) in
             let* b = self (depth - 1) in
             return (Expr.Ite (c, a, b)));
          ])
    4

let gen_env =
  let open QCheck2.Gen in
  let* vals = array_repeat 4 (int_range (-50) 50) in
  return (fun (s : Expr.sym) ->
      match Array.to_list (Array.mapi (fun i p -> (p.Expr.id, vals.(i))) pool) with
      | l -> ( match List.assoc_opt s.Expr.id l with Some v -> v | None -> 0))

let prop_norm_preserves_semantics =
  QCheck2.Test.make ~name:"Simplify.norm preserves evaluation" ~count:500
    QCheck2.Gen.(pair gen_expr gen_env)
    (fun (e, env) ->
      let v1 = Expr.eval env e and v2 = Expr.eval env (Simplify.norm e) in
      v1 = v2)

let prop_norm_idempotent =
  QCheck2.Test.make ~name:"Simplify.norm is idempotent" ~count:500 gen_expr
    (fun e ->
      let n1 = Simplify.norm e in
      Expr.equal n1 (Simplify.norm n1))

let test_simplify_identities () =
  let x = Expr.Sym (sym "x") in
  let n = Simplify.norm in
  check bool_t "x+0" true (Expr.equal (n (Expr.add x Expr.zero)) x);
  check bool_t "0+x" true (Expr.equal (n (Expr.add Expr.zero x)) x);
  check bool_t "x*1" true (Expr.equal (n (Expr.mul x Expr.one)) x);
  check bool_t "x*0" true (Expr.equal (n (Expr.mul x Expr.zero)) Expr.zero);
  check bool_t "x-x" true (Expr.equal (n (Expr.sub x x)) Expr.zero);
  check bool_t "x=x" true (Expr.equal (n (Expr.eq x x)) Expr.one);
  check bool_t "const fold" true
    (Expr.equal (n (Expr.add (Expr.const 2) (Expr.const 3))) (Expr.const 5));
  check bool_t "drift" true
    (Expr.equal
       (n (Expr.add (Expr.add x (Expr.const 2)) (Expr.const 3)))
       (n (Expr.add x (Expr.const 5))));
  check bool_t "cmp shift" true
    (Expr.equal
       (n (Expr.eq (Expr.add x (Expr.const 2)) (Expr.const 7)))
       (n (Expr.eq x (Expr.const 5))));
  (* division by zero never folds *)
  check bool_t "div0 preserved" true
    (match n (Expr.Binop (Res_ir.Instr.Div, Expr.const 4, Expr.const 0)) with
    | Expr.Binop (Res_ir.Instr.Div, _, _) -> true
    | _ -> false)

(* --- intervals --- *)

let prop_interval_binop_sound =
  QCheck2.Test.make ~name:"interval transfer is sound" ~count:1000
    QCheck2.Gen.(
      let* op =
        oneofl
          Res_ir.Instr.
            [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ]
      in
      let* a_lo = int_range (-100) 100 in
      let* a_off = int_range 0 50 in
      let* b_lo = int_range (-100) 100 in
      let* b_off = int_range 0 50 in
      let* a_v = int_range 0 a_off in
      let* b_v = int_range 0 b_off in
      return (op, a_lo, a_off, b_lo, b_off, a_v, b_v))
    (fun (op, a_lo, a_off, b_lo, b_off, a_v, b_v) ->
      let ia = Interval.v a_lo (a_lo + a_off) in
      let ib = Interval.v b_lo (b_lo + b_off) in
      let va = a_lo + a_v and vb = b_lo + b_v in
      match Res_ir.Instr.eval_binop op va vb with
      | exception Division_by_zero -> true
      | r -> Interval.contains (Interval.of_binop op ia ib) r)

let test_interval_basics () =
  let i = Interval.v 3 7 in
  check bool_t "contains" true (Interval.contains i 5);
  check bool_t "not contains" false (Interval.contains i 8);
  check (Alcotest.option int_t) "size" (Some 5) (Interval.size i);
  check bool_t "empty inter" true
    (Interval.is_empty (Interval.inter i (Interval.v 10 20)));
  check bool_t "top unbounded" true (Interval.size Interval.top = None)

(* --- solver --- *)

let solve = Solver.solve ?config:None

let expect_sat name cs preds =
  match solve cs with
  | Solver.Sat m ->
      List.iter (fun (what, p) -> check bool_t (name ^ ": " ^ what) true (p m)) preds;
      check bool_t (name ^ ": model satisfies all") true
        (List.for_all (Model.satisfies m) cs)
  | Solver.Unsat -> Alcotest.failf "%s: expected sat, got unsat" name
  | Solver.Unknown -> Alcotest.failf "%s: expected sat, got unknown" name

let expect_unsat name cs =
  match solve cs with
  | Solver.Unsat -> ()
  | Solver.Sat m -> Alcotest.failf "%s: expected unsat, got model %a" name Model.pp m
  | Solver.Unknown -> Alcotest.failf "%s: expected unsat, got unknown" name

let test_solve_trivial () =
  let x = sym "x" in
  expect_sat "x = 5"
    [ Expr.eq (Expr.Sym x) (Expr.const 5) ]
    [ ("x is 5", fun m -> Model.value m x = 5) ];
  expect_unsat "x = 5 and x = 6"
    [
      Expr.eq (Expr.Sym x) (Expr.const 5); Expr.eq (Expr.Sym x) (Expr.const 6);
    ];
  expect_sat "no constraints" [] [];
  expect_unsat "false" [ Expr.zero ];
  expect_sat "true" [ Expr.one ] []

let test_solve_linear_one_var () =
  let x = sym "x" in
  expect_sat "x + 3 = 10"
    [ Expr.eq (Expr.add (Expr.Sym x) (Expr.const 3)) (Expr.const 10) ]
    [ ("x is 7", fun m -> Model.value m x = 7) ];
  expect_sat "2x = 14"
    [ Expr.eq (Expr.mul (Expr.const 2) (Expr.Sym x)) (Expr.const 14) ]
    [ ("x is 7", fun m -> Model.value m x = 7) ];
  expect_unsat "2x = 7"
    [ Expr.eq (Expr.mul (Expr.const 2) (Expr.Sym x)) (Expr.const 7) ]

let test_solve_inequalities () =
  let x = sym "x" in
  expect_sat "3 < x <= 5, x != 4"
    [
      Expr.gt (Expr.Sym x) (Expr.const 3);
      Expr.le (Expr.Sym x) (Expr.const 5);
      Expr.ne (Expr.Sym x) (Expr.const 4);
    ]
    [ ("x is 5", fun m -> Model.value m x = 5) ];
  expect_unsat "x < 3 and x > 5"
    [ Expr.lt (Expr.Sym x) (Expr.const 3); Expr.gt (Expr.Sym x) (Expr.const 5) ]

let test_solve_linear_system () =
  let x = sym "x" and y = sym "y" in
  expect_sat "x+y=10, x-y=4"
    [
      Expr.eq (Expr.add (Expr.Sym x) (Expr.Sym y)) (Expr.const 10);
      Expr.eq (Expr.sub (Expr.Sym x) (Expr.Sym y)) (Expr.const 4);
    ]
    [
      ("x is 7", fun m -> Model.value m x = 7);
      ("y is 3", fun m -> Model.value m y = 3);
    ];
  expect_unsat "x+y=10, x+y=11"
    [
      Expr.eq (Expr.add (Expr.Sym x) (Expr.Sym y)) (Expr.const 10);
      Expr.eq (Expr.add (Expr.Sym x) (Expr.Sym y)) (Expr.const 11);
    ]

let test_solve_three_var_chain () =
  let x = sym "x" and y = sym "y" and z = sym "z" in
  expect_sat "chain"
    [
      Expr.eq (Expr.add (Expr.Sym x) (Expr.Sym y)) (Expr.Sym z);
      Expr.eq (Expr.Sym z) (Expr.const 9);
      Expr.eq (Expr.sub (Expr.Sym x) (Expr.Sym y)) (Expr.const 1);
    ]
    [
      ("x is 5", fun m -> Model.value m x = 5);
      ("y is 4", fun m -> Model.value m y = 4);
    ]

let test_solve_boolean_structure () =
  let x = sym "x" and y = sym "y" in
  (* (x=1 and y=2) via And-splitting *)
  expect_sat "and split"
    [
      Expr.Binop
        ( Res_ir.Instr.And,
          Expr.eq (Expr.Sym x) (Expr.const 1),
          Expr.eq (Expr.Sym y) (Expr.const 2) );
    ]
    [
      ("x is 1", fun m -> Model.value m x = 1);
      ("y is 2", fun m -> Model.value m y = 2);
    ];
  (* not (x = 3) with x in [3,4] forces 4 *)
  expect_sat "negated eq"
    [
      Expr.ge (Expr.Sym x) (Expr.const 3);
      Expr.le (Expr.Sym x) (Expr.const 4);
      Expr.logical_not (Expr.eq (Expr.Sym x) (Expr.const 3));
    ]
    [ ("x is 4", fun m -> Model.value m x = 4) ]

let test_solve_division_guard () =
  let x = sym "x" in
  (* 10 / x = 5 with x > 0: enumerable once bounded *)
  expect_sat "division"
    [
      Expr.gt (Expr.Sym x) (Expr.const 0);
      Expr.le (Expr.Sym x) (Expr.const 20);
      Expr.eq
        (Expr.Binop (Res_ir.Instr.Div, Expr.const 10, Expr.Sym x))
        (Expr.const 5);
    ]
    [ ("10/x=5", fun m -> 10 / Model.value m x = 5) ]

let test_solve_nonlinear_small () =
  let x = sym "x" in
  expect_sat "x*x = 49, bounded"
    [
      Expr.ge (Expr.Sym x) (Expr.const 0);
      Expr.le (Expr.Sym x) (Expr.const 100);
      Expr.eq (Expr.mul (Expr.Sym x) (Expr.Sym x)) (Expr.const 49);
    ]
    [ ("x is 7", fun m -> Model.value m x = 7) ]

(* Xor by a constant is a bijection: an equality through it (and through
   constant adds and negation) pins the variable, as the reverse
   executor's inversion does. *)
let test_solve_xor_pins () =
  let x = sym "x" and y = sym "y" in
  let xor a b = Expr.Binop (Res_ir.Instr.Xor, a, b) in
  expect_sat "x = -20, x xor y = -10"
    [
      Expr.eq (Expr.Sym x) (Expr.const (-20));
      Expr.eq (xor (Expr.Sym x) (Expr.Sym y)) (Expr.const (-10));
    ]
    [ ("y is 26", fun m -> Model.value m y = 26) ];
  expect_sat "((y + 36) xor 5) xor 9 = 1000"
    [
      Expr.eq
        (xor (xor (Expr.add (Expr.Sym y) (Expr.const 36)) (Expr.const 5))
           (Expr.const 9))
        (Expr.const 1000);
    ]
    [
      ( "y is (1000 xor 9 xor 5) - 36",
        fun m -> Model.value m y = (1000 lxor 9 lxor 5) - 36 );
    ];
  expect_unsat "x xor 3 = 7 and x = 5"
    [
      Expr.eq (xor (Expr.Sym x) (Expr.const 3)) (Expr.const 7);
      Expr.eq (Expr.Sym x) (Expr.const 5);
    ]

let test_concretize () =
  let x = sym "x" in
  let constraints =
    [ Expr.ge (Expr.Sym x) (Expr.const 2); Expr.le (Expr.Sym x) (Expr.const 4) ]
  in
  (match Solver.concretize ~constraints ~max_candidates:10 (Expr.Sym x) with
  | Ok vs ->
      check (Alcotest.list int_t) "all values" [ 2; 3; 4 ] (List.sort compare vs)
  | Error `Unknown -> Alcotest.fail "unexpected unknown");
  match
    Solver.unique_value
      ~constraints:[ Expr.eq (Expr.Sym x) (Expr.const 9) ]
      (Expr.add (Expr.Sym x) (Expr.const 1))
  with
  | Some 10 -> ()
  | Some v -> Alcotest.failf "expected 10, got %d" v
  | None -> Alcotest.fail "expected unique value"

let test_unique_value_ambiguous () =
  let x = sym "x" in
  match
    Solver.unique_value
      ~constraints:
        [ Expr.ge (Expr.Sym x) (Expr.const 0); Expr.le (Expr.Sym x) (Expr.const 1) ]
      (Expr.Sym x)
  with
  | None -> ()
  | Some v -> Alcotest.failf "expected ambiguity, got %d" v

(* property: on random small systems, solver verdicts agree with brute force *)
let prop_solver_vs_bruteforce =
  let open QCheck2.Gen in
  let small_pool = Array.sub pool 0 2 in
  let gen_cmp =
    let* op = oneofl Res_ir.Instr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let* lhs_sym = int_range 0 1 in
    let* scale = int_range 1 2 in
    let* shift = int_range (-3) 3 in
    let* rhs = int_range (-6) 6 in
    return
      (Expr.Binop
         ( op,
           Expr.add
             (Expr.mul (Expr.const scale) (Expr.Sym small_pool.(lhs_sym)))
             (Expr.const shift),
           Expr.const rhs ))
  in
  let gen_system =
    let* n = int_range 1 4 in
    let* cs = list_repeat n gen_cmp in
    (* bound the search space so brute force and solver both terminate *)
    let bounds s =
      [
        Expr.ge (Expr.Sym s) (Expr.const (-8)); Expr.le (Expr.Sym s) (Expr.const 8);
      ]
    in
    return (cs @ bounds small_pool.(0) @ bounds small_pool.(1))
  in
  QCheck2.Test.make ~name:"solver agrees with brute force" ~count:300 gen_system
    (fun cs ->
      let brute_sat =
        let vals = List.init 17 (fun i -> i - 8) in
        List.exists
          (fun v0 ->
            List.exists
              (fun v1 ->
                let env (s : Expr.sym) =
                  if s.Expr.id = small_pool.(0).Expr.id then v0
                  else if s.Expr.id = small_pool.(1).Expr.id then v1
                  else 0
                in
                List.for_all
                  (fun c ->
                    match Expr.eval env c with
                    | v -> v <> 0
                    | exception Division_by_zero -> false)
                  cs)
              vals)
          vals
      in
      match solve cs with
      | Solver.Sat m -> brute_sat && List.for_all (Model.satisfies m) cs
      | Solver.Unsat -> not brute_sat
      | Solver.Unknown -> true (* allowed, never wrong *))

let prop_sat_models_verified =
  QCheck2.Test.make ~name:"every Sat model satisfies its constraints" ~count:200
    QCheck2.Gen.(small_list gen_expr)
    (fun cs ->
      match solve cs with
      | Solver.Sat m -> List.for_all (Model.satisfies m) cs
      | Solver.Unsat | Solver.Unknown -> true)

(* systems of small linear equalities over 3 variables: the affine
   elimination path must agree with brute force *)
let prop_linear_systems_vs_bruteforce =
  let open QCheck2.Gen in
  let vars = Array.init 3 (fun i -> Expr.fresh_sym (Fmt.str "lv%d" i)) in
  let gen_equality =
    let* c0 = int_range (-2) 2 in
    let* c1 = int_range (-2) 2 in
    let* c2 = int_range (-2) 2 in
    let* k = int_range (-6) 6 in
    let term c v = Expr.mul (Expr.const c) (Expr.Sym v) in
    return
      (Expr.eq
         (Expr.add (Expr.add (term c0 vars.(0)) (term c1 vars.(1))) (term c2 vars.(2)))
         (Expr.const k))
  in
  let gen_system =
    let* n = int_range 1 3 in
    let* eqs = list_repeat n gen_equality in
    let bound v =
      [ Expr.ge (Expr.Sym v) (Expr.const (-5)); Expr.le (Expr.Sym v) (Expr.const 5) ]
    in
    return (eqs @ List.concat_map bound (Array.to_list vars))
  in
  QCheck2.Test.make ~name:"linear systems agree with brute force" ~count:200
    gen_system (fun cs ->
      let vals = List.init 11 (fun i -> i - 5) in
      let brute =
        List.exists
          (fun v0 ->
            List.exists
              (fun v1 ->
                List.exists
                  (fun v2 ->
                    let env (s : Expr.sym) =
                      if s.Expr.id = vars.(0).Expr.id then v0
                      else if s.Expr.id = vars.(1).Expr.id then v1
                      else if s.Expr.id = vars.(2).Expr.id then v2
                      else 0
                    in
                    List.for_all (fun c -> Expr.eval env c <> 0) cs)
                  vals)
              vals)
          vals
      in
      match solve cs with
      | Solver.Sat m -> brute && List.for_all (Model.satisfies m) cs
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_norm_preserves_semantics;
      prop_norm_idempotent;
      prop_interval_binop_sound;
      prop_solver_vs_bruteforce;
      prop_sat_models_verified;
      prop_linear_systems_vs_bruteforce;
    ]

let () =
  Alcotest.run "res_solver"
    [
      ( "expr",
        [
          Alcotest.test_case "basics" `Quick test_expr_basics;
          Alcotest.test_case "equality" `Quick test_expr_equal;
        ] );
      ( "simplify",
        [ Alcotest.test_case "identities" `Quick test_simplify_identities ] );
      ("interval", [ Alcotest.test_case "basics" `Quick test_interval_basics ]);
      ( "solve",
        [
          Alcotest.test_case "trivial" `Quick test_solve_trivial;
          Alcotest.test_case "linear one var" `Quick test_solve_linear_one_var;
          Alcotest.test_case "inequalities" `Quick test_solve_inequalities;
          Alcotest.test_case "linear system" `Quick test_solve_linear_system;
          Alcotest.test_case "three-var chain" `Quick test_solve_three_var_chain;
          Alcotest.test_case "boolean structure" `Quick test_solve_boolean_structure;
          Alcotest.test_case "division guard" `Quick test_solve_division_guard;
          Alcotest.test_case "nonlinear small" `Quick test_solve_nonlinear_small;
          Alcotest.test_case "xor pins a variable" `Quick test_solve_xor_pins;
          Alcotest.test_case "concretize" `Quick test_concretize;
          Alcotest.test_case "ambiguous unique_value" `Quick
            test_unique_value_ambiguous;
        ] );
      ("properties", qcheck_cases);
    ]
