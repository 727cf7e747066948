(** Concrete reverse execution of a statically invertible block.

    Given the reverse {!Invert.plan} for a block, the post-state of the
    segment (exposed through an {!oracle} of callbacks so this library
    stays independent of the snapshot and solver layers), and the block
    the segment must branch to, recover the unique concrete pre-state —
    or report that none exists, or that the question cannot be settled
    concretely.

    Post-frame registers come in three flavours ({!post}): concrete
    values, {e free} symbols (the symbol occurs nowhere else in the
    snapshot, so the symbolic path's compatibility equality against it
    is satisfiable for any execution and forces nothing — a wildcard),
    and symbols that other constraints may force ([P_sym] — the engine
    must not guess, so it falls back).  Free wildcards are what let the
    engine chain: after one reverse step the non-live defined registers
    hold fresh unconstrained symbols, and the next step back across the
    same loop body must accept them.

    Three passes:

    - a {e rigid pass}: a forward scan computing, per program point, the
      registers whose values follow from constants and global addresses
      alone ([r1 = global g; r3 = const 1] pins [r1] and [r3] at every
      later point).  These values are forced regardless of the entry
      state, so they both resolve access addresses the backward walk
      reaches before the defining instruction and cross-check every
      value the walk recovers.

    - a {e backward walk} over the reverse ops, last instruction first.
      [vals] maps registers to their known value at the current
      (backward-moving) program point, seeded from the concrete
      post-frame values; each memory cell carries a view of its value at
      that point — [Known v] (concrete), [Sym] (symbolic in the post
      snapshot), or [Pre] (overwritten by a later store, pre-value not
      yet recovered).  Un-doing a store learns or checks its source
      register against the cell's post value and demotes the view to
      [Pre]; un-doing a load can {e recover} a [Pre] cell from the
      destination's known value; pure definitions check consistency
      when all operands are known and invert the injective cases
      ([add]/[sub]/[xor]/[mov]/[neg], plus the forced boolean cases of
      [not]/[eq]/[ne]).

    - a {e forward validation} that concretely executes the plan's kept
      instructions from the recovered entry state and requires them to
      reproduce the post-state exactly — every defined register with a
      concrete post value, every written cell, and the branch target.
      The walk only ever proposes; validation decides.  Because every
      recovered value is forced (each is derived from concrete post
      values through injective steps or the rigid pass), a validation
      mismatch proves the segment infeasible rather than merely
      mis-recovered.

    Three-valued result: [Reversed] (unique pre-state recovered and
    validated — skip symbolic execution {e and} the solver), [Infeasible]
    (no pre-state of this shape exists — reject the candidate without
    the solver), [Unknown] (fall back to the symbolic step). *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

(** Post-frame register value, as the reverse engine needs to see it.
    [P_free]: a symbol unconstrained anywhere else in the snapshot — the
    symbolic path's equality against it forces nothing, so the register
    is a wildcard.  [P_sym]: symbolic and possibly forced elsewhere. *)
type post = P_val of int | P_free | P_sym

(** Callbacks into the dynamic state.  [read_post] returns [None] when
    the cell's value is symbolic; [is_mapped] mirrors the forward
    executor's access check; [require_target] is the block the segment
    must branch to. *)
type oracle = {
  post_reg : int -> post;
  read_post : int -> int option;
  is_mapped : int -> bool;
  global_base : string -> int option;
  require_target : string;
  regs : int list;  (** register universe of the function *)
}

(** A recovered pre-state.  [rs_entry_regs] covers the plan's live-in
    registers; written cells are split into recovered pre-values
    ([rs_pre_mem]) and cells whose pre-value is provably unobserved
    ([rs_fresh_mem] — the caller mints fresh symbols for those, exactly
    as the symbolic path does).  [rs_writes]/[rs_reads] are sorted
    ascending to match the symbolic executor's bookkeeping. *)
type summary = {
  rs_entry_regs : int IMap.t;
  rs_pre_mem : (int * int) list;
  rs_fresh_mem : int list;
  rs_writes : int list;
  rs_reads : int list;
  rs_target : string;
  rs_steps : int;
  rs_slice_skipped : int;
}

type result = Reversed of summary | Infeasible of string | Unknown of string

exception Stop of result

let infeasible fmt = Fmt.kstr (fun s -> raise (Stop (Infeasible s))) fmt
let unknown fmt = Fmt.kstr (fun s -> raise (Stop (Unknown s))) fmt

type view = Known of int | Sym | Pre

(** [rigid b o] — per-program-point register values forced by the block
    text alone: constants, global addresses, and pure arithmetic over
    already-rigid operands.  [rigid.(i)] holds the values {e before}
    instruction [i]; index [n] is the point before the terminator.  The
    scan covers the full instruction array (definitions the plan omits still
    kill staleness), and any definition it cannot compute — a load, a
    division that traps — simply drops the register. *)
let rigid (b : Res_ir.Block.t) (o : oracle) =
  let n = Array.length b.Res_ir.Block.instrs in
  let out = Array.make (n + 1) IMap.empty in
  let cur = ref IMap.empty in
  let get r = IMap.find_opt r !cur in
  let set d = function
    | Some v -> cur := IMap.add d v !cur
    | None -> cur := IMap.remove d !cur
  in
  for i = 0 to n - 1 do
    out.(i) <- !cur;
    match b.Res_ir.Block.instrs.(i) with
    | Res_ir.Instr.Const (d, c) -> set d (Some c)
    | Mov (d, a) -> set d (get a)
    | Global_addr (d, g) -> set d (o.global_base g)
    | Unop (op, d, a) -> set d (Option.map (Res_ir.Instr.eval_unop op) (get a))
    | Binop (op, d, a, b') ->
        set d
          (match (get a, get b') with
          | Some x, Some y -> (
              match Res_ir.Instr.eval_binop op x y with
              | v -> Some v
              | exception Division_by_zero -> None)
          | _ -> None)
    | i -> ( match Res_ir.Instr.defs i with Some d -> set d None | None -> ())
  done;
  out.(n) <- !cur;
  out

let run (b : Res_ir.Block.t) (plan : Invert.plan) (o : oracle) : result =
  try
    (* Dynamic eligibility.  A defined register whose post value a live
       constraint may force elsewhere cannot be checked concretely; a
       carried live-in register with a symbolic value would be seeded
       symbolically into the forward executor (address and branch forks
       the concrete engine cannot mirror), free or not. *)
    ISet.iter
      (fun r ->
        if o.post_reg r = P_sym then
          unknown "post value of r%d may be forced elsewhere" r)
      plan.Invert.pl_defined;
    ISet.iter
      (fun r ->
        if
          (not (ISet.mem r plan.Invert.pl_defined))
          && (match o.post_reg r with P_val _ -> false | P_free | P_sym -> true)
        then unknown "carried live-in r%d is symbolic" r)
      plan.Invert.pl_live_in;
    let rg = rigid b o in
    let n_pt = Array.length rg - 1 in
    let rigid_at p r = IMap.find_opt r rg.(p) in
    let vals = ref IMap.empty in
    let views : (int, view) Hashtbl.t = Hashtbl.create 16 in
    let view a =
      match Hashtbl.find_opt views a with
      | Some v -> v
      | None ->
          let v = match o.read_post a with Some w -> Known w | None -> Sym in
          Hashtbl.replace views a v;
          v
    in
    let writes = ref ISet.empty in
    (* Walk-state lookups and learning are positional: [vals] carries
       values across the walk (forgotten at definitions), the rigid pass
       supplies point-forced values, and the two must agree wherever
       both speak — a disagreement is two forced values in conflict,
       i.e. an unsatisfiable candidate. *)
    let value_at p r =
      match IMap.find_opt r !vals with
      | Some v ->
          (match rigid_at p r with
          | Some w when w <> v ->
              infeasible "r%d is forced to both %d and %d" r v w
          | _ -> ());
          Some v
      | None -> rigid_at p r
    in
    let learn p r v =
      (match rigid_at p r with
      | Some w when w <> v -> infeasible "r%d is forced to both %d and %d" r w v
      | _ -> ());
      match IMap.find_opt r !vals with
      | Some w -> if w <> v then infeasible "r%d is forced to both %d and %d" r w v
      | None -> vals := IMap.add r v !vals
    in
    let forget r = vals := IMap.remove r !vals in
    let addr_of p base off =
      match value_at p base with Some v -> Some (v + off) | None -> None
    in
    (* Seed from the post frame (the end-of-block point, [n_pt]); the
       rigid cross-check there rejects post states the block text
       already contradicts. *)
    List.iter
      (fun r -> match o.post_reg r with P_val v -> learn n_pt r v | _ -> ())
      o.regs;
    (* The terminator runs last, so it is un-done first. *)
    let target =
      match plan.Invert.pl_term with
      | Invert.T_jmp l ->
          if not (String.equal l o.require_target) then
            infeasible "jmp %s cannot reach %s" l o.require_target;
          l
      | Invert.T_br { reg; if_nonzero; if_zero } -> (
          match value_at n_pt reg with
          | None -> unknown "branch register r%d is not concrete" reg
          | Some v ->
              let t = if v <> 0 then if_nonzero else if_zero in
              if not (String.equal t o.require_target) then
                infeasible "br takes %s, not %s" t o.require_target;
              t)
    in
    (* Post-definition value of [dst] at point [idx + 1]. *)
    let post_def idx dst =
      match IMap.find_opt dst !vals with
      | Some v ->
          (match rigid_at (idx + 1) dst with
          | Some w when w <> v ->
              infeasible "r%d is forced to both %d and %d" dst v w
          | _ -> ());
          Some v
      | None -> rigid_at (idx + 1) dst
    in
    let undo_def idx dst rhs =
      let v_dst = post_def idx dst in
      (* Recovered pre-value of [dst] itself (operand aliasing the
         destination), installed after the definition is popped. *)
      let pending = ref None in
      let operand r = if r = dst then rigid_at idx dst else value_at idx r in
      let learn_operand r v =
        if r = dst then (
          (match rigid_at idx dst with
          | Some w when w <> v ->
              infeasible "r%d is forced to both %d and %d" r w v
          | _ -> ());
          match !pending with
          | Some w when w <> v ->
              infeasible "r%d is forced to both %d and %d" r w v
          | Some _ -> ()
          | None -> pending := Some v)
        else learn idx r v
      in
      (match rhs with
      | Invert.Rhs_const c -> (
          match v_dst with
          | Some v when v <> c ->
              infeasible "const %d but r%d is %d" c dst v
          | _ -> ())
      | Invert.Rhs_global g -> (
          match o.global_base g with
          | None -> unknown "global %s has no layout address" g
          | Some ga -> (
              match v_dst with
              | Some v when v <> ga ->
                  infeasible "global %s is at %d but r%d is %d" g ga dst v
              | _ -> ()))
      | Invert.Rhs_mov a -> (
          if a = dst then (* identity move: pre-value = post-value *)
            pending := v_dst
          else match v_dst with Some v -> learn_operand a v | None -> ())
      | Invert.Rhs_unop (op, a) -> (
          match v_dst with
          | None -> ()
          | Some v -> (
              match op with
              | Res_ir.Instr.Neg -> learn_operand a (-v)
              | Res_ir.Instr.Not ->
                  if v <> 0 && v <> 1 then infeasible "not yields %d" v
                  else if v = 1 then learn_operand a 0))
      | Invert.Rhs_binop (op, a, b') -> (
          let va = operand a and vb = operand b' in
          match (va, vb) with
          | Some x, Some y -> (
              match Res_ir.Instr.eval_binop op x y with
              | exception Division_by_zero -> infeasible "division by zero"
              | expected -> (
                  match v_dst with
                  | Some v when v <> expected ->
                      infeasible "%s %d, %d yields %d but r%d is %d"
                        (Res_ir.Instr.binop_name op)
                        x y expected dst v
                  | _ -> ()))
          | _ -> (
              (match (op, v_dst) with
              | (Res_ir.Instr.Eq | Ne | Lt | Le | Gt | Ge), Some v
                when v <> 0 && v <> 1 ->
                  infeasible "%s yields %d" (Res_ir.Instr.binop_name op) v
              | _ -> ());
              match v_dst with
              | None -> ()
              | Some v -> (
                  (* single-unknown inversions of the injective cases *)
                  match (op, va, vb) with
                  | Res_ir.Instr.Add, None, Some y -> learn_operand a (v - y)
                  | Res_ir.Instr.Add, Some x, None -> learn_operand b' (v - x)
                  | Res_ir.Instr.Sub, None, Some y -> learn_operand a (v + y)
                  | Res_ir.Instr.Sub, Some x, None -> learn_operand b' (x - v)
                  | Res_ir.Instr.Xor, None, Some y -> learn_operand a (v lxor y)
                  | Res_ir.Instr.Xor, Some x, None -> learn_operand b' (x lxor v)
                  | Res_ir.Instr.Eq, None, Some y when v = 1 -> learn_operand a y
                  | Res_ir.Instr.Eq, Some x, None when v = 1 -> learn_operand b' x
                  | Res_ir.Instr.Ne, None, Some y when v = 0 -> learn_operand a y
                  | Res_ir.Instr.Ne, Some x, None when v = 0 -> learn_operand b' x
                  | _ -> ()))));
      forget dst;
      match !pending with
      | Some v -> vals := IMap.add dst v !vals
      | None -> ()
    in
    List.iter
      (fun rop ->
        match rop with
        | Invert.R_check { reg; idx } -> (
            match value_at idx reg with
            | Some 0 -> infeasible "assert of r%d fails" reg
            | Some _ | None -> ())
        | Invert.R_store { addr; off; src; idx } -> (
            match addr_of idx addr off with
            | None -> unknown "store @%d: address r%d is not concrete" idx addr
            | Some a ->
                writes := ISet.add a !writes;
                (match view a with
                | Known w -> learn idx src w
                | Sym -> unknown "store @%d: post value of %d is symbolic" idx a
                | Pre -> () (* overwritten again later: unconstrained *));
                Hashtbl.replace views a Pre)
        | Invert.R_load { dst; addr; off; idx } ->
            if dst = addr then
              unknown "load @%d clobbers its own address register" idx;
            let v_dst = post_def idx dst in
            (match addr_of idx addr off with
            | None -> unknown "load @%d: address r%d is not concrete" idx addr
            | Some a -> (
                match (view a, v_dst) with
                | Known w, Some v ->
                    if v <> w then
                      infeasible "load @%d reads %d but r%d is %d" idx w dst v
                | Known _, None -> ()
                | Pre, Some v ->
                    (* the load observed the cell before the later store:
                       its pre-value is recovered *)
                    Hashtbl.replace views a (Known v)
                | Pre, None ->
                    (* the loaded value is unconstrained; that is only
                       sound if nothing can observe it *)
                    if not (Defuse.dead_after b ~idx) then
                      unknown
                        "load @%d from an overwritten cell feeds a live use"
                        idx
                | Sym, _ ->
                    unknown "load @%d: post value of %d is symbolic" idx a));
            forget dst
        | Invert.R_def { dst; rhs; idx } -> undo_def idx dst rhs)
      plan.Invert.pl_rops;
    ISet.iter
      (fun r ->
        if not (IMap.mem r !vals) then
          unknown "live-in register r%d was not recovered" r)
      plan.Invert.pl_live_in;
    let pre_mem, fresh_mem =
      ISet.fold
        (fun a (pm, fm) ->
          match view a with
          | Known v -> ((a, v) :: pm, fm)
          | Pre -> (pm, a :: fm)
          | Sym -> (pm, fm) (* unreachable: a Sym store aborts the walk *))
        !writes ([], [])
    in
    let entry_regs =
      ISet.fold
        (fun r m ->
          match IMap.find_opt r !vals with
          | Some v -> IMap.add r v m
          | None -> m)
        plan.Invert.pl_live_in IMap.empty
    in
    (* Forward validation: concretely execute the kept instructions from the
       recovered entry state and demand the exact post-state back.

       Validation also tracks a {e taint} bit per register and written
       cell: whether the value would be a symbolic expression under the
       symbolic executor (it depends on a havocked pre-value — the entry
       value of a defined register, or a cell overwritten later in the
       block).  The symbolic path resolves {e symbolic} access addresses
       heuristically (address-pool enumeration, which can miss), so to
       preserve fast-path-on/off equivalence any access through a
       tainted address register falls back to the symbolic step. *)
    let vregs = ref entry_regs in
    let tainted = ref (ISet.inter plan.Invert.pl_live_in plan.Invert.pl_defined) in
    let vmem : (int, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun (a, v) -> Hashtbl.replace vmem a v) pre_mem;
    (* Fresh cells: the pre-value is dead, any placeholder validates. *)
    List.iter (fun a -> Hashtbl.replace vmem a 0) fresh_mem;
    let written_now : (int, int * bool) Hashtbl.t = Hashtbl.create 16 in
    let trusted_post = ref ISet.empty in
    let reads = ref ISet.empty in
    let vread r =
      match IMap.find_opt r !vregs with
      | Some v -> v
      | None -> unknown "validation reads undefined r%d" r
    in
    let taint_of r = ISet.mem r !tainted in
    let set_taint r t =
      tainted := if t then ISet.add r !tainted else ISet.remove r !tainted
    in
    let check_addr idx r =
      if taint_of r then
        unknown "access @%d through r%d depends on a havocked pre-value" idx r
    in
    let mem_read a =
      if not (o.is_mapped a) then infeasible "access to unmapped %d" a;
      match Hashtbl.find_opt written_now a with
      | Some vt -> vt
      | None -> (
          reads := ISet.add a !reads;
          match Hashtbl.find_opt vmem a with
          | Some v -> (v, true) (* symbolically a havocked pre-symbol *)
          | None -> (
              match o.read_post a with
              | Some v ->
                  trusted_post := ISet.add a !trusted_post;
                  (v, false)
              | None -> unknown "validation reads symbolic cell %d" a))
    in
    let mem_write a vt =
      if not (o.is_mapped a) then infeasible "access to unmapped %d" a;
      Hashtbl.replace written_now a vt
    in
    List.iter
      (fun rop ->
        match rop with
        | Invert.R_def { dst; rhs; _ } ->
            let v, t =
              match rhs with
              | Invert.Rhs_const c -> (c, false)
              | Invert.Rhs_global g -> (
                  match o.global_base g with
                  | Some ga -> (ga, false)
                  | None -> unknown "global %s has no layout address" g)
              | Invert.Rhs_mov a -> (vread a, taint_of a)
              | Invert.Rhs_unop (op, a) ->
                  (Res_ir.Instr.eval_unop op (vread a), taint_of a)
              | Invert.Rhs_binop (op, a, b') -> (
                  let x = vread a and y = vread b' in
                  match Res_ir.Instr.eval_binop op x y with
                  | exception Division_by_zero -> infeasible "division by zero"
                  | v -> (v, taint_of a || taint_of b'))
            in
            vregs := IMap.add dst v !vregs;
            set_taint dst t
        | Invert.R_load { dst; addr; off; idx } ->
            check_addr idx addr;
            let v, t = mem_read (vread addr + off) in
            vregs := IMap.add dst v !vregs;
            set_taint dst t
        | Invert.R_store { addr; off; src; idx } ->
            check_addr idx addr;
            mem_write (vread addr + off) (vread src, taint_of src)
        | Invert.R_check { reg; _ } ->
            if vread reg = 0 then infeasible "assert fails")
      (List.rev plan.Invert.pl_rops);
    (match plan.Invert.pl_term with
    | Invert.T_jmp _ -> () (* already checked against the target *)
    | Invert.T_br { reg; if_nonzero; if_zero } ->
        (* A tainted condition with both labels equal would fork the
           symbolic executor into two surviving outcomes; the concrete
           engine has only one. *)
        if taint_of reg && String.equal if_nonzero if_zero then
          unknown "branch on a havocked value with a single target";
        let t = if vread reg <> 0 then if_nonzero else if_zero in
        if not (String.equal t target) then
          unknown "validation branches to %s, not %s" t target);
    ISet.iter
      (fun r ->
        match o.post_reg r with
        | P_free -> () (* wildcard: any validated value satisfies it *)
        | P_sym -> unknown "post value of r%d may be forced elsewhere" r
        | P_val post -> (
            match IMap.find_opt r !vregs with
            | Some v when v = post -> ()
            | Some v -> infeasible "r%d validates to %d, post is %d" r v post
            | None -> unknown "defined register r%d never validated" r))
      plan.Invert.pl_defined;
    Hashtbl.iter
      (fun a (v, _taint) ->
        match o.read_post a with
        | Some w ->
            if v <> w then
              infeasible "cell %d validates to %d, post is %d" a v w
        | None -> unknown "written cell %d is symbolic in the post state" a)
      written_now;
    (* The walk and validation must agree on the write set, and no cell
       read through the post snapshot may also be written — such a read
       would have needed the (unrecovered) pre-value instead. *)
    let wnow =
      Hashtbl.fold (fun a _ s -> ISet.add a s) written_now ISet.empty
    in
    if not (ISet.equal wnow !writes) then
      unknown "write sets diverge between walk and validation";
    if not (ISet.is_empty (ISet.inter !trusted_post wnow)) then
      unknown "a written cell was read through the post snapshot";
    Reversed
      {
        rs_entry_regs = entry_regs;
        rs_pre_mem = List.sort compare pre_mem;
        rs_fresh_mem = List.sort compare fresh_mem;
        rs_writes = ISet.elements !writes;
        rs_reads = ISet.elements !reads;
        rs_target = target;
        rs_steps = plan.Invert.pl_n_instrs + 1;
        rs_slice_skipped = plan.Invert.pl_skipped;
      }
  with Stop r -> r
