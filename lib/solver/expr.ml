(** Symbolic expressions.

    The paper's symbolic values ([§2.3]): an expression is either a concrete
    word, a symbolic variable ("stand-in for any possible value"), or an
    operator applied to sub-expressions.  The operators are exactly MiniIR's
    ALU operators, so forward symbolic execution of a block is a direct
    re-interpretation of its instructions over this type. *)

(** A symbolic variable.  [name] is for humans (it records provenance, e.g.
    ["pre:r3"] or ["input:net#2"]); identity is [id]. *)
type sym = { id : int; name : string }

type t =
  | Const of int
  | Sym of sym
  | Binop of Res_ir.Instr.binop * t * t
  | Unop of Res_ir.Instr.unop * t
  | Ite of t * t * t  (** if-then-else on a nonzero condition *)

(* An [Atomic] so concurrent search workers (OCaml 5 domains) mint
   disjoint ids: a plain [ref] would lose increments under contention and
   hand two domains the same "fresh" variable. *)
let counter = Atomic.make 0

(** Allocate a fresh symbolic variable.  Fresh variables are globally
    unique for the lifetime of the process, across all domains. *)
let fresh_sym name = { id = 1 + Atomic.fetch_and_add counter 1; name }

(** Reset the id counter — test isolation only. *)
let reset_counter_for_tests () = Atomic.set counter 0

let fresh name = Sym (fresh_sym name)
let const n = Const n
let zero = Const 0
let one = Const 1

let is_const = function Const _ -> true | _ -> false
let const_val = function Const n -> Some n | _ -> None

(* Shorthand constructors. *)
let add a b = Binop (Res_ir.Instr.Add, a, b)
let sub a b = Binop (Res_ir.Instr.Sub, a, b)
let mul a b = Binop (Res_ir.Instr.Mul, a, b)
let eq a b = Binop (Res_ir.Instr.Eq, a, b)
let ne a b = Binop (Res_ir.Instr.Ne, a, b)
let lt a b = Binop (Res_ir.Instr.Lt, a, b)
let le a b = Binop (Res_ir.Instr.Le, a, b)
let gt a b = Binop (Res_ir.Instr.Gt, a, b)
let ge a b = Binop (Res_ir.Instr.Ge, a, b)
let logical_not a = Unop (Res_ir.Instr.Not, a)

module Sym_set = Set.Make (struct
  type nonrec t = sym

  let compare a b = Int.compare a.id b.id
end)

(** Free symbolic variables of an expression. *)
let rec syms = function
  | Const _ -> Sym_set.empty
  | Sym s -> Sym_set.singleton s
  | Binop (_, a, b) -> Sym_set.union (syms a) (syms b)
  | Unop (_, a) -> syms a
  | Ite (c, a, b) -> Sym_set.union (syms c) (Sym_set.union (syms a) (syms b))

(** Whether the expression contains no symbolic variables. *)
let rec is_concrete = function
  | Const _ -> true
  | Sym _ -> false
  | Binop (_, a, b) -> is_concrete a && is_concrete b
  | Unop (_, a) -> is_concrete a
  | Ite (c, a, b) -> is_concrete c && is_concrete a && is_concrete b

(** [subst f e] replaces each symbolic variable [s] by [f s] (returning
    [Sym s] keeps it). *)
let rec subst f = function
  | Const n -> Const n
  | Sym s -> f s
  | Binop (op, a, b) -> Binop (op, subst f a, subst f b)
  | Unop (op, a) -> Unop (op, subst f a)
  | Ite (c, a, b) -> Ite (subst f c, subst f a, subst f b)

(** [subst_sym s v e] replaces variable [s] by constant [v]. *)
let subst_sym s v e =
  subst (fun s' -> if s'.id = s.id then Const v else Sym s') e

(** Evaluate under a total assignment.
    @raise Division_by_zero when the assignment divides by zero — callers
    (the solver) treat such candidates as failing. *)
let rec eval env = function
  | Const n -> n
  | Sym s -> env s
  | Binop (op, a, b) -> Res_ir.Instr.eval_binop op (eval env a) (eval env b)
  | Unop (op, a) -> Res_ir.Instr.eval_unop op (eval env a)
  | Ite (c, a, b) -> if eval env c <> 0 then eval env a else eval env b

(** Structural size — used by tests and as a solver heuristic. *)
let rec size = function
  | Const _ | Sym _ -> 1
  | Binop (_, a, b) -> 1 + size a + size b
  | Unop (_, a) -> 1 + size a
  | Ite (c, a, b) -> 1 + size c + size a + size b

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Sym x, Sym y -> x.id = y.id
  | Binop (op, x1, y1), Binop (op', x2, y2) ->
      op = op' && equal x1 x2 && equal y1 y2
  | Unop (op, x), Unop (op', y) -> op = op' && equal x y
  | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      equal c1 c2 && equal a1 a2 && equal b1 b2
  | (Const _ | Sym _ | Binop _ | Unop _ | Ite _), _ -> false

let rec compare_expr a b =
  let tag = function
    | Const _ -> 0
    | Sym _ -> 1
    | Binop _ -> 2
    | Unop _ -> 3
    | Ite _ -> 4
  in
  match (a, b) with
  | Const x, Const y -> Int.compare x y
  | Sym x, Sym y -> Int.compare x.id y.id
  | Binop (op, x1, y1), Binop (op', x2, y2) ->
      let c = compare op op' in
      if c <> 0 then c
      else
        let c = compare_expr x1 x2 in
        if c <> 0 then c else compare_expr y1 y2
  | Unop (op, x), Unop (op', y) ->
      let c = compare op op' in
      if c <> 0 then c else compare_expr x y
  | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      let c = compare_expr c1 c2 in
      if c <> 0 then c
      else
        let c = compare_expr a1 a2 in
        if c <> 0 then c else compare_expr b1 b2
  | x, y -> Int.compare (tag x) (tag y)

let rec pp ppf = function
  | Const n -> Fmt.int ppf n
  | Sym s -> Fmt.pf ppf "%s#%d" s.name s.id
  | Binop (op, a, b) ->
      Fmt.pf ppf "(%s %a %a)" (Res_ir.Instr.binop_name op) pp a pp b
  | Unop (op, a) -> Fmt.pf ppf "(%s %a)" (Res_ir.Instr.unop_name op) pp a
  | Ite (c, a, b) -> Fmt.pf ppf "(ite %a %a %a)" pp c pp a pp b

let to_string e = Fmt.str "%a" pp e
