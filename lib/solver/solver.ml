(** An SMT-lite constraint solver over MiniIR's integer expressions.

    Stands in for the STP/Z3 back end of a real symbolic-execution engine
    (DESIGN.md §1).  The pipeline is: normalization → equality propagation →
    interval propagation → bounded backtracking search over candidate
    values, with model verification at the leaves.  It is complete on the
    fragment our workloads generate (linear arithmetic, comparisons, small
    bitwise values); anything it cannot decide within budget comes back
    [Unknown], never a wrong answer. *)

module IMap = Map.Make (Int)

type result = Sat of Model.t | Unsat | Unknown

type config = {
  max_nodes : int;  (** search-tree node budget *)
  max_enum : int;  (** intervals at most this wide are enumerated fully *)
  interrupt : unit -> bool;
      (** cooperative interrupt, polled once per search node: when it
          returns [true] the solve stops and reports [Unknown] — how a
          pipeline-wide deadline reaches into a running solve *)
}

let default_config =
  { max_nodes = 50_000; max_enum = 256; interrupt = (fun () -> false) }

(* --- linear extraction: e == a * s + b for a single variable s --- *)

type linear = { l_sym : Expr.sym; l_a : int; l_b : int }

let rec linear_of (e : Expr.t) : linear option =
  match e with
  | Expr.Sym s -> Some { l_sym = s; l_a = 1; l_b = 0 }
  | Expr.Binop (Res_ir.Instr.Add, x, Expr.Const c) ->
      Option.map (fun l -> { l with l_b = l.l_b + c }) (linear_of x)
  | Expr.Binop (Res_ir.Instr.Add, Expr.Const c, x) ->
      Option.map (fun l -> { l with l_b = l.l_b + c }) (linear_of x)
  | Expr.Binop (Res_ir.Instr.Sub, x, Expr.Const c) ->
      Option.map (fun l -> { l with l_b = l.l_b - c }) (linear_of x)
  | Expr.Binop (Res_ir.Instr.Sub, Expr.Const c, x) ->
      Option.map
        (fun l -> { l with l_a = -l.l_a; l_b = c - l.l_b })
        (linear_of x)
  | Expr.Binop (Res_ir.Instr.Mul, x, Expr.Const c)
  | Expr.Binop (Res_ir.Instr.Mul, Expr.Const c, x) ->
      Option.map (fun l -> { l with l_a = l.l_a * c; l_b = l.l_b * c }) (linear_of x)
  | Expr.Unop (Res_ir.Instr.Neg, x) ->
      Option.map (fun l -> { l with l_a = -l.l_a; l_b = -l.l_b }) (linear_of x)
  | _ -> None

(* --- multi-variable affine forms: sum(coeff_i * sym_i) + const --- *)

type affine = { aff_coeffs : (Expr.sym * int) list; aff_const : int }

let aff_merge f a b =
  let rec merge = function
    | [], l -> List.filter (fun (_, c) -> c <> 0) (List.map (fun (s, c) -> (s, f 0 c)) l)
    | l, [] -> List.filter (fun (_, c) -> c <> 0) l
    | ((s1, c1) :: r1 as l1), ((s2, c2) :: r2 as l2) ->
        if s1.Expr.id < s2.Expr.id then
          if c1 = 0 then merge (r1, l2) else (s1, c1) :: merge (r1, l2)
        else if s2.Expr.id < s1.Expr.id then
          let c = f 0 c2 in
          if c = 0 then merge (l1, r2) else (s2, c) :: merge (l1, r2)
        else
          let c = f c1 c2 in
          if c = 0 then merge (r1, r2) else (s1, c) :: merge (r1, r2)
  in
  merge (a, b)

let rec affine_of (e : Expr.t) : affine option =
  let open Res_ir.Instr in
  match e with
  | Expr.Const n -> Some { aff_coeffs = []; aff_const = n }
  | Expr.Sym s -> Some { aff_coeffs = [ (s, 1) ]; aff_const = 0 }
  | Expr.Binop (Add, a, b) -> (
      match (affine_of a, affine_of b) with
      | Some x, Some y ->
          Some
            {
              aff_coeffs = aff_merge ( + ) x.aff_coeffs y.aff_coeffs;
              aff_const = x.aff_const + y.aff_const;
            }
      | _ -> None)
  | Expr.Binop (Sub, a, b) -> (
      match (affine_of a, affine_of b) with
      | Some x, Some y ->
          Some
            {
              aff_coeffs = aff_merge (fun c1 c2 -> c1 - c2) x.aff_coeffs y.aff_coeffs;
              aff_const = x.aff_const - y.aff_const;
            }
      | _ -> None)
  | Expr.Binop (Mul, a, Expr.Const c) | Expr.Binop (Mul, Expr.Const c, a) ->
      Option.map
        (fun x ->
          {
            aff_coeffs =
              List.filter_map
                (fun (s, k) -> if k * c = 0 then None else Some (s, k * c))
                x.aff_coeffs;
            aff_const = x.aff_const * c;
          })
        (affine_of a)
  | Expr.Unop (Neg, a) ->
      Option.map
        (fun x ->
          {
            aff_coeffs = List.map (fun (s, k) -> (s, -k)) x.aff_coeffs;
            aff_const = -x.aff_const;
          })
        (affine_of a)
  | _ -> None

let expr_of_affine { aff_coeffs; aff_const } =
  let term (s, c) =
    if c = 1 then Expr.Sym s else Expr.mul (Expr.const c) (Expr.Sym s)
  in
  let body =
    match aff_coeffs with
    | [] -> Expr.const aff_const
    | t :: rest ->
        let sum = List.fold_left (fun acc t' -> Expr.add acc (term t')) (term t) rest in
        if aff_const = 0 then sum else Expr.add sum (Expr.const aff_const)
  in
  body

(** Gaussian-style elimination on [Eq] constraints that are affine with a
    unit-coefficient pivot: rewrite the pivot variable as an affine form of
    the others and substitute it away.  Returns the reduced constraints and
    the substitutions (in elimination order) needed to rebuild a full
    model. *)
let eliminate_affine_pass constraints =
  let subs = ref [] in
  let apply_sub (s : Expr.sym) rhs e =
    Simplify.norm
      (Expr.subst (fun s' -> if s'.Expr.id = s.Expr.id then rhs else Expr.Sym s') e)
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | e :: rest -> (
        match e with
        | Expr.Binop (Res_ir.Instr.Eq, e1, e2) -> (
            let diff =
              match (affine_of e1, affine_of e2) with
              | Some x, Some y ->
                  Some
                    {
                      aff_coeffs = aff_merge (fun a b -> a - b) x.aff_coeffs y.aff_coeffs;
                      aff_const = x.aff_const - y.aff_const;
                    }
              | _ -> None
            in
            match diff with
            | Some { aff_coeffs = []; aff_const } ->
                (* Variable-free equality: drop if true, else contradiction. *)
                if aff_const = 0 then loop acc rest
                else loop (Expr.zero :: acc) rest
            | Some ({ aff_coeffs = [ _ ]; _ } as d) ->
                (* Canonical single-variable form, refinable downstream. *)
                let canon = Simplify.norm (Expr.eq (expr_of_affine d) Expr.zero) in
                loop (canon :: acc) rest
            | Some d -> (
                match List.find_opt (fun (_, c) -> abs c = 1) d.aff_coeffs with
                | Some (s, c) ->
                    (* c*s + rest = 0  =>  s = -rest/c *)
                    let rest_aff =
                      {
                        aff_coeffs =
                          List.filter (fun (s', _) -> s'.Expr.id <> s.Expr.id) d.aff_coeffs
                          |> List.map (fun (s', k) -> (s', -k * c));
                        aff_const = -d.aff_const * c;
                      }
                    in
                    let rhs = Simplify.norm (expr_of_affine rest_aff) in
                    subs := (s, rhs) :: !subs;
                    let rewrite = apply_sub s rhs in
                    loop (List.map rewrite acc) (List.map rewrite rest)
                | None -> loop (e :: acc) rest)
            | _ -> loop (e :: acc) rest)
        | _ -> loop (e :: acc) rest)
  in
  let reduced = loop [] constraints in
  (reduced, List.rev !subs)

(** Iterate elimination passes until no further pivot emerges: a
    substitution may turn an earlier constraint into a new affine fact. *)
let eliminate_affine constraints =
  let rec fix rounds cs =
    if rounds = 0 then (cs, [])
    else
      match eliminate_affine_pass cs with
      | reduced, [] -> (reduced, [])
      | reduced, subs ->
          let reduced', subs' = fix (rounds - 1) reduced in
          (reduced', subs @ subs')
  in
  fix 10 constraints

(* --- interval environment --- *)

type _ienv = Interval.t IMap.t

let iv_of env (s : Expr.sym) =
  match IMap.find_opt s.id env with Some i -> i | None -> Interval.top

let rec interval_of env (e : Expr.t) =
  match e with
  | Expr.Const n -> Interval.of_const n
  | Expr.Sym s -> iv_of env s
  | Expr.Binop (op, a, b) ->
      Interval.of_binop op (interval_of env a) (interval_of env b)
  | Expr.Unop (op, a) -> Interval.of_unop op (interval_of env a)
  | Expr.Ite (_, a, b) -> Interval.union (interval_of env a) (interval_of env b)

(** Refine [env] knowing that [a * s + b] lies within [target]. *)
let refine_linear env (l : linear) (target : Interval.t) =
  if l.l_a = 0 then
    if Interval.contains target l.l_b then Some env else None
  else
    let shifted = Interval.sub target (Interval.of_const l.l_b) in
    (* s in shifted / a, rounding toward the inside of the interval *)
    let lo, hi =
      if l.l_a > 0 then
        ( (if shifted.Interval.lo <= Interval.inf_neg then Interval.inf_neg
           else
             (* ceil division *)
             let x = shifted.Interval.lo in
             if x >= 0 then (x + l.l_a - 1) / l.l_a else x / l.l_a),
          if shifted.Interval.hi >= Interval.inf_pos then Interval.inf_pos
          else
            let x = shifted.Interval.hi in
            if x >= 0 then x / l.l_a else -((-x + l.l_a - 1) / l.l_a) )
      else
        let a = -l.l_a in
        let neg = Interval.neg shifted in
        ( (if neg.Interval.lo <= Interval.inf_neg then Interval.inf_neg
           else
             let x = neg.Interval.lo in
             if x >= 0 then (x + a - 1) / a else x / a),
          if neg.Interval.hi >= Interval.inf_pos then Interval.inf_pos
          else
            let x = neg.Interval.hi in
            if x >= 0 then x / a else -((-x + a - 1) / a) )
    in
    let refined = Interval.inter (iv_of env l.l_sym) (Interval.v lo hi) in
    if Interval.is_empty refined then None
    else Some (IMap.add l.l_sym.id refined env)

(** Refine from one constraint [e <> 0].  Returns [None] on contradiction. *)
let refine_one env (e : Expr.t) =
  let open Res_ir.Instr in
  let cmp_target op other =
    (* e1 `op` e2 is true: the interval e1 must lie in, given e2's. *)
    match op with
    | Eq -> Some other
    | Lt -> Some (Interval.v Interval.inf_neg (other.Interval.hi - 1))
    | Le -> Some (Interval.v Interval.inf_neg other.Interval.hi)
    | Gt -> Some (Interval.v (other.Interval.lo + 1) Interval.inf_pos)
    | Ge -> Some (Interval.v other.Interval.lo Interval.inf_pos)
    | Ne | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr -> None
  in
  let flip = function
    | Lt -> Gt
    | Le -> Ge
    | Gt -> Lt
    | Ge -> Le
    | (Eq | Ne) as op -> op
    | op -> op
  in
  match e with
  | Expr.Binop (op, e1, e2) -> (
      let refined_left =
        match (cmp_target op (interval_of env e2), linear_of e1) with
        | Some target, Some l -> refine_linear env l target
        | _ -> Some env
      in
      match refined_left with
      | None -> None
      | Some env -> (
          match (cmp_target (flip op) (interval_of env e1), linear_of e2) with
          | Some target, Some l -> refine_linear env l target
          | _ -> Some env))
  | _ -> Some env

(* --- constraint normalization and equality propagation --- *)

exception Contradiction

(** Substitute known bindings and normalize; raise on a constant-false
    constraint; drop constant-true ones; split conjunctions of booleans. *)
let normalize_constraints bindings constraints =
  let subst_bindings e =
    Expr.subst
      (fun s ->
        match IMap.find_opt s.Expr.id bindings with
        | Some v -> Expr.Const v
        | None -> Expr.Sym s)
      e
  in
  let rec push acc e =
    match Simplify.norm_constraint (subst_bindings e) with
    | Expr.Const 0 -> raise Contradiction
    | Expr.Const _ -> acc
    | Expr.Binop (Res_ir.Instr.And, a, b)
      when Simplify.is_boolean a && Simplify.is_boolean b ->
        push (push acc a) b
    | e' -> e' :: acc
  in
  List.rev (List.fold_left push [] constraints)

(* [pin e c]: the [sym = const] fact [e = c] implies when [e] applies
   only bijections — xor, add or subtract a constant, negate — to one
   variable.  The reverse-execution fast path inverts exactly these, so
   the solver must not answer [Unknown] where that path recovers a
   value (interval refinement cannot see through xor). *)
let rec pin (e : Expr.t) c =
  let open Res_ir.Instr in
  match e with
  | Expr.Sym s -> Some (s, c)
  | Expr.Binop (Xor, x, Expr.Const k) | Expr.Binop (Xor, Expr.Const k, x) ->
      pin x (c lxor k)
  | Expr.Binop (Add, x, Expr.Const k) | Expr.Binop (Add, Expr.Const k, x) ->
      pin x (c - k)
  | Expr.Binop (Sub, x, Expr.Const k) -> pin x (c + k)
  | Expr.Binop (Sub, Expr.Const k, x) -> pin x (k - c)
  | Expr.Unop (Neg, x) -> pin x (-c)
  | _ -> None

let sym_fact (e : Expr.t) =
  match e with
  | Expr.Binop (Res_ir.Instr.Eq, x, Expr.Const c)
  | Expr.Binop (Res_ir.Instr.Eq, Expr.Const c, x) ->
      pin x c
  | _ -> None

(** Extract [sym = const] facts, returning extended bindings and the
    remaining constraints.  Loops until no further facts emerge. *)
let rec propagate_equalities bindings constraints =
  let constraints = normalize_constraints bindings constraints in
  let found = ref false in
  let bindings = ref bindings in
  let rest =
    List.filter
      (fun e ->
        match sym_fact e with
        | Some (s, c) ->
            (match IMap.find_opt s.Expr.id !bindings with
            | Some c' when c' <> c -> raise Contradiction
            | Some _ -> ()
            | None ->
                bindings := IMap.add s.Expr.id c !bindings;
                found := true);
            false
        | None -> true)
      constraints
  in
  if !found then propagate_equalities !bindings rest else (!bindings, rest)

(** Run interval refinement to a bounded fixpoint.
    @raise Contradiction when some constraint cannot hold. *)
let propagate_intervals env constraints =
  let env = ref env in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 30 do
    changed := false;
    incr rounds;
    List.iter
      (fun e ->
        (* A constraint whose interval excludes 0 is already satisfied;
           one whose interval is exactly 0 is a contradiction. *)
        let iv = interval_of !env e in
        if Interval.is_const iv && iv.Interval.lo = 0 then raise Contradiction;
        match refine_one !env e with
        | None -> raise Contradiction
        | Some env' ->
            if not (IMap.equal Interval.equal env' !env) then (
              env := env';
              changed := true))
      constraints
  done;
  !env

(* --- search --- *)

let interesting_constants constraints =
  let rec collect acc (e : Expr.t) =
    match e with
    | Expr.Const n -> n :: acc
    | Expr.Sym _ -> acc
    | Expr.Binop (_, a, b) -> collect (collect acc a) b
    | Expr.Unop (_, a) -> collect acc a
    | Expr.Ite (c, a, b) -> collect (collect (collect acc c) a) b
  in
  let base = List.fold_left collect [ 0; 1; -1 ] constraints in
  List.concat_map (fun n -> [ n; n - 1; n + 1; -n ]) base
  |> List.sort_uniq compare

let free_syms constraints =
  List.fold_left
    (fun acc e -> Expr.Sym_set.union acc (Expr.syms e))
    Expr.Sym_set.empty constraints
  |> Expr.Sym_set.elements

(** Candidate values for [s], most promising first. *)
let candidates cfg env constraints (s : Expr.sym) =
  let iv = iv_of env s in
  match Interval.size iv with
  | Some n when n <= cfg.max_enum ->
      (* Enumerate the whole interval, small magnitudes first. *)
      ( `Complete,
        List.init n (fun i -> iv.Interval.lo + i)
        |> List.sort (fun a b -> compare (abs a, a) (abs b, b)) )
  | _ ->
      let pool = interesting_constants constraints in
      let within = List.filter (Interval.contains iv) pool in
      let extras =
        List.filter
          (fun v -> Interval.contains iv v && not (List.mem v within))
          [ iv.Interval.lo; iv.Interval.hi ]
      in
      (`Heuristic, within @ extras)

let solve_core config constraints =
  let original = constraints in
  let nodes = ref 0 in
  let exception Budget in
  let finish bindings env =
    (* No undecided constraints left: give every variable of the original
       problem an in-interval value (bindings win when present). *)
    let model =
      List.fold_left
        (fun m (s : Expr.sym) ->
          if IMap.mem s.Expr.id m then m
          else
            let iv = iv_of env s in
            let v =
              if Interval.contains iv 0 then 0
              else if iv.Interval.lo > 0 then iv.Interval.lo
              else iv.Interval.hi
            in
            IMap.add s.Expr.id v m)
        bindings (free_syms original)
    in
    let as_model =
      IMap.fold (fun id v m -> Model.add { Expr.id; name = "" } v m) model Model.empty
    in
    if List.for_all (Model.satisfies as_model) original then Some as_model
    else None
  in
  let rec go bindings env constraints =
    incr nodes;
    if !nodes > config.max_nodes || config.interrupt () then raise Budget;
    match propagate_equalities bindings constraints with
    | exception Contradiction -> `Unsat
    | bindings, constraints -> (
        match propagate_intervals env constraints with
        | exception Contradiction -> `Unsat
        | env -> (
            (* Drop constraints already certainly true. *)
            let constraints =
              List.filter
                (fun e ->
                  let iv = interval_of env e in
                  Interval.contains iv 0 || Interval.is_empty iv)
                constraints
            in
            match constraints with
            | [] -> (
                match finish bindings env with
                | Some m -> `Sat m
                | None -> `Unknown)
            | _ -> (
                match free_syms constraints with
                | [] -> `Unsat (* unsatisfied but variable-free: impossible *)
                | syms -> branch bindings env constraints syms)))
  and branch bindings env constraints syms =
    (* Split on the variable with the narrowest interval. *)
    let width (s : Expr.sym) =
      match Interval.size (iv_of env s) with
      | Some n -> n
      | None -> max_int
    in
    let s =
      List.fold_left
        (fun best s -> if width s < width best then s else best)
        (List.hd syms) (List.tl syms)
    in
    let completeness, values = candidates config env constraints s in
    let rec try_values = function
      | [] -> if completeness = `Complete then `Unsat else `Unknown
      | v :: rest -> (
          match go (IMap.add s.Expr.id v bindings) env constraints with
          | `Sat m -> `Sat m
          | `Unsat -> try_values rest
          | `Unknown ->
              (* Remember incompleteness but keep trying other values. *)
              (match try_values rest with `Unsat -> `Unknown | r -> r))
    in
    try_values values
  in
  match go IMap.empty IMap.empty constraints with
  | `Sat m -> Sat m
  | `Unsat -> Unsat
  | `Unknown -> Unknown
  | exception Budget -> Unknown

(** Solve a constraint set: every expression in the list is asserted
    nonzero.  Multi-variable linear equalities are eliminated up front;
    the returned model (if any) always satisfies the {e original}
    constraints — an answer of [Sat]/[Unsat] is trustworthy, [Unknown]
    means budget or fragment limits were hit. *)
(* Per-domain query counter (domain-local storage): each parallel search
   worker meters its own solver traffic and reports the count explicitly,
   so aggregation never double-counts whichever backend (domains or forked
   processes) ran the worker. *)
let queries_key = Domain.DLS.new_key (fun () -> ref 0)
let queries () = !(Domain.DLS.get queries_key)

let solve ?(config = default_config) constraints =
  incr (Domain.DLS.get queries_key);
  match normalize_constraints IMap.empty constraints with
  | exception Contradiction -> Unsat
  | normalized -> (
      let reduced, subs = eliminate_affine normalized in
      match solve_core config reduced with
      | Unsat -> Unsat
      | Unknown -> Unknown
      | Sat m ->
          (* Rebuild eliminated variables, last eliminated first (earlier
             right-hand sides may mention later-eliminated variables). *)
          let m =
            List.fold_left
              (fun m (s, rhs) -> Model.add s (Model.eval m rhs) m)
              m (List.rev subs)
          in
          if List.for_all (Model.satisfies m) constraints then Sat m
          else Unknown)

(** [is_sat cs] — convenience wrapper. *)
let is_sat ?config cs =
  match solve ?config cs with Sat _ -> true | Unsat | Unknown -> false

(** Feasible concrete values of [e] under [constraints], at most
    [max_candidates] of them, found by iteratively excluding each model
    value.  Returns [Error `Unknown] if the solver cannot decide, and the
    (possibly empty) complete list otherwise. *)
let concretize ?config ~constraints ~max_candidates e =
  let rec loop acc n constraints =
    if n = 0 then Ok (List.rev acc)
    else
      match solve ?config constraints with
      | Unsat -> Ok (List.rev acc)
      | Unknown -> if acc = [] then Error `Unknown else Ok (List.rev acc)
      | Sat m -> (
          match Model.eval m e with
          | v -> loop (v :: acc) (n - 1) (Expr.ne e (Expr.const v) :: constraints)
          | exception Division_by_zero -> Error `Unknown)
  in
  loop [] max_candidates constraints

(** Whether [e] has a single feasible value under [constraints]; returns it. *)
let unique_value ?config ~constraints e =
  match concretize ?config ~constraints ~max_candidates:2 e with
  | Ok [ v ] -> Some v
  | Ok _ | Error _ -> None

let pp_result ppf = function
  | Sat m -> Fmt.pf ppf "sat %a" Model.pp m
  | Unsat -> Fmt.string ppf "unsat"
  | Unknown -> Fmt.string ppf "unknown"
