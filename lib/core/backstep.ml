(** One backward step of reverse execution synthesis (paper §2.4).

    Given a symbolic snapshot [Spost] and a candidate "previous segment"
    (one root-function block of one thread, calls inlined), this module:

    + builds the lazily-symbolic pre-state (havocked registers, lazy
      pre-memory symbols),
    + forward-executes the candidate block symbolically ({!Res_symex}),
    + emits the compatibility constraints [S' ⊇ Spost] — every journaled
      location's final value must equal the snapshot's, the terminator must
      branch to the already-synthesized successor, and heap/thread
      structure must line up,
    + checks satisfiability, and on success returns the new snapshot
      [Spre] one segment earlier in time. *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)
module SSet = Set.Make (String)
open Res_solver

(** What a {!Res_core.Search.search} call leaves on its context for the
    next, one-deeper call: extended by [Search], so this module need not
    know the search's types. *)
type carry = ..

type carry += No_carry

(* The statics memo: a program's whole-program mod/ref summaries
   ([Summary.of_prog], a fixpoint over every function), which depend only
   on its code, never on a dump, and mint no symbols, so one value serves
   every analysis of the program.  Keyed by structural class of program
   (a physically equal program matches at once, a re-parsed copy by
   [Prog.equal]), at most [statics_bound] programs, cleared when full.
   Each domain keeps its own, so no summary is shared between domains; a
   forked worker inherits its parent's. *)
module Prog_class = Hashtbl.Make (struct
  type t = Res_ir.Prog.t

  let equal a b = a == b || Res_ir.Prog.equal a b
  let hash = Hashtbl.hash
end)

let statics_bound = 64

type statics_memo = {
  progs : Res_static.Summary.t Prog_class.t;
  mutable built : int;
  mutable reused : int;
}

let statics_key =
  Domain.DLS.new_key (fun () ->
      { progs = Prog_class.create statics_bound; built = 0; reused = 0 })

type statics_counts = { built : int; reused : int }

(** This domain's statics built and reused since it started. *)
let statics_counts () =
  let m = Domain.DLS.get statics_key in
  { built = m.built; reused = m.reused }

(** The summaries of [prog], built at most once per structural class of
    program while the memo holds it. *)
let statics_of prog =
  let m = Domain.DLS.get statics_key in
  match Prog_class.find_opt m.progs prog with
  | Some st ->
      m.reused <- m.reused + 1;
      st
  | None ->
      let st = Res_static.Summary.of_prog prog in
      if Prog_class.length m.progs >= statics_bound then
        Prog_class.reset m.progs;
      Prog_class.add m.progs prog st;
      m.built <- m.built + 1;
      st

type ctx = {
  prog : Res_ir.Prog.t;
  layout : Res_mem.Layout.t;
  cfg : Res_ir.Cfg.t;
  sym_config : Res_symex.Symexec.config;
  solver_config : Solver.config;
  relaxed_mem : ISet.t;
      (** memory cells exempted from write-history consistency — the
          hardware-error hypothesis of paper §3.2: "this word was corrupted
          by hardware, so the software history need not explain its value" *)
  relaxed_regs : (int * Res_ir.Instr.reg) list;
      (** (tid, reg) pairs exempted likewise (CPU miscompute hypothesis) *)
  use_addr_pool : bool;
      (** resolve unconstrained havocked pointers against plausible mapped
          addresses (suffix-touched first); disabling it is the A1 ablation *)
  statics : Res_static.Summary.t;
      (** whole-program mod/ref summaries, shared with every analysis of
          the program ({!statics_of}) *)
  invert_memo : (string * string, Res_static.Invert.verdict) Hashtbl.t;
      (** memoized invertibility verdicts per (func, block) — the
          classifier is purely static, so one verdict serves every
          segment over the same block *)
  carry : carry ref;
      (** the last search's deepening carry — a cell, so the copies
          {!with_interrupt} makes share it; never in the statics memo *)
}

(** An analysis context for [prog]: the program's shared summaries and
    this analysis's own layout, CFG, verdict memo, configs, relaxations
    and carry. *)
let make_ctx ?(sym_config = Res_symex.Symexec.default_config)
    ?(solver_config = Solver.default_config) ?(relaxed_mem = ISet.empty)
    ?(relaxed_regs = []) ?(use_addr_pool = true) prog =
  {
    prog;
    layout = Res_mem.Layout.of_prog prog;
    cfg = Res_ir.Cfg.of_prog prog;
    sym_config;
    solver_config;
    relaxed_mem;
    relaxed_regs;
    use_addr_pool;
    statics = statics_of prog;
    invert_memo = Hashtbl.create 64;
    carry = ref No_carry;
  }

(** Thread a cooperative interrupt into every engine the context drives:
    the solver, the symbolic executor, and the executor's inner solver.
    How {!Budget} deadlines reach mid-flight solves and block executions. *)
let with_interrupt ctx interrupt =
  {
    ctx with
    solver_config = { ctx.solver_config with Solver.interrupt };
    sym_config =
      {
        ctx.sym_config with
        Res_symex.Symexec.interrupt;
        solver = { ctx.sym_config.Res_symex.Symexec.solver with Solver.interrupt };
      };
  }

(** Candidate backward moves for one thread. *)
type kind =
  | K_partial of Res_vm.Crash.kind option
      (** consume the thread's in-progress segment, ending at its coredump
          stack position (the crash segment, or a blocked thread's last
          partial segment) *)
  | K_full of { block : Res_ir.Instr.label }
      (** the thread ran [block] to completion, branching to its current
          snapshot position *)
  | K_final of { func : string; block : Res_ir.Instr.label }
      (** a halted thread's terminal segment: [block] of [func] ending in
          [ret]/[halt] *)

(** A successfully applied backward step. *)
type applied = {
  ap_snapshot : Snapshot.t;  (** the new, one-segment-earlier snapshot *)
  ap_segment : Suffix.segment;
  ap_logs : (string * Expr.t) list;
      (** [log] emissions of the segment, oldest first — matched against
          the coredump's error log when breadcrumb pruning is on *)
}

type step_result = {
  applied : applied list;
  rejects : string list;
  reversed : int;
      (** 1 when the concrete reverse-execution fast path decided this
          move (recovered a pre-state or proved it infeasible) without
          symbolic execution or a solver query *)
  slice_skipped : int;
      (** dead pure definitions the fast path never touched
          ([Invert.plan]'s [pl_skipped]) *)
}

let no_result msg =
  { applied = []; rejects = [ msg ]; reversed = 0; slice_skipped = 0 }

(* --- static block summaries: alloc/spawn counts and callee regions --- *)

exception Dynamic of string

(** Functions transitively callable from [fname] (spawns excluded: they run
    in other threads). *)
let callee_closure prog fname =
  let rec go visited fname =
    if SSet.mem fname visited then visited
    else
      let visited = SSet.add fname visited in
      let f = Res_ir.Prog.func prog fname in
      List.fold_left
        (fun visited (b : Res_ir.Block.t) ->
          Array.fold_left
            (fun visited i ->
              match i with
              | Res_ir.Instr.Call (_, callee, _) -> go visited callee
              | _ -> visited)
            visited b.instrs)
        visited f.blocks
  in
  go SSet.empty fname

(** Statically-exact sequences of allocations and spawned functions a block
    performs, calls included.
    @raise Dynamic when a multi-block or recursive callee performs
    allocations or spawns (their count would be path-dependent). *)
let static_block_effects prog ~func ~block_label =
  let rec count_func visited fname =
    if SSet.mem fname visited then
      raise (Dynamic (Fmt.str "recursive call to %s" fname));
    let f = Res_ir.Prog.func prog fname in
    match f.Res_ir.Func.blocks with
    | [ b ] -> count_block (SSet.add fname visited) b
    | blocks ->
        let effects =
          List.concat_map (fun b -> count_block (SSet.add fname visited) b) blocks
        in
        if effects <> [] then
          raise (Dynamic (Fmt.str "multi-block callee %s allocates or spawns" fname))
        else []
  and count_block visited (b : Res_ir.Block.t) =
    Array.to_list b.instrs
    |> List.concat_map (fun i ->
           match i with
           | Res_ir.Instr.Alloc _ -> [ `Alloc ]
           | Res_ir.Instr.Spawn (_, callee, _) -> [ `Spawn callee ]
           | Res_ir.Instr.Call (_, callee, _) -> count_func visited callee
           | _ -> [])
  in
  let b = Res_ir.Prog.block prog ~func ~label:block_label in
  count_block (SSet.singleton "") b

(* --- heap surgery --- *)

(** Functions transitively callable from the instructions of one block. *)
let block_callee_closure prog ~func ~block_label =
  let b = Res_ir.Prog.block prog ~func ~label:block_label in
  Array.fold_left
    (fun acc i ->
      match i with
      | Res_ir.Instr.Call (_, callee, _) ->
          SSet.union acc (callee_closure prog callee)
      | _ -> acc)
    SSet.empty b.Res_ir.Block.instrs

(** Build the pre-block heap: re-live blocks this segment freed, un-allocate
    the blocks it allocated.  Returns [(pre_heap, alloc_plan)]. *)
let heap_surgery ctx (post_heap : Res_mem.Heap.t) ~func ~block_label ~n_allocs =
  let region_funcs = block_callee_closure ctx.prog ~func ~block_label in
  let freed_here (b : Res_mem.Heap.block) =
    b.Res_mem.Heap.state = Res_mem.Heap.Freed
    &&
    match b.Res_mem.Heap.free_site with
    | Some pc ->
        (String.equal pc.Res_ir.Pc.func func
        && String.equal pc.Res_ir.Pc.block block_label)
        || SSet.mem pc.Res_ir.Pc.func region_funcs
    | None -> false
  in
  let heap =
    List.fold_left
      (fun h (b : Res_mem.Heap.block) ->
        if freed_here b then Res_mem.Heap.unfree h b.Res_mem.Heap.base else h)
      post_heap
      (Res_mem.Heap.blocks post_heap)
  in
  let all = Res_mem.Heap.alloc_order heap in
  if List.length all < n_allocs then Error "fewer recorded allocations than the block performs"
  else
    let tail =
      (* the last [n_allocs] allocations, in allocation order *)
      let n = List.length all in
      List.filteri (fun i _ -> i >= n - n_allocs) all
    in
    let plan =
      List.map (fun (b : Res_mem.Heap.block) -> (b.base, b.size)) tail
    in
    let heap =
      List.fold_left
        (fun h (b : Res_mem.Heap.block) -> Res_mem.Heap.unalloc h b.base)
        heap (List.rev tail)
    in
    Ok (heap, plan)

(* --- frames and constraints --- *)

let root_frame (ts : Snapshot.thread_state) =
  match List.rev ts.Snapshot.ts_frames with
  | root :: _ -> Some root
  | [] -> None

let frame_reg (fr : Res_symex.Symframe.t) r =
  match Res_symex.Symframe.read_opt fr r with
  | Some e -> e
  | None -> Expr.zero

(** Seed the pre-frame: registers the block never defines keep their
    post-state value; defined registers are left unset so reads mint fresh
    pre symbols (the paper's havoc). *)
let seed_frame ctx ~post_root ~func ~block_label =
  let f = Res_ir.Prog.func ctx.prog func in
  let block = Res_ir.Prog.block ctx.prog ~func ~label:block_label in
  let defined = Res_ir.Block.defined_regs block in
  let seed =
    List.fold_left
      (fun m r ->
        if List.mem r defined then m
        else
          match post_root with
          | Some fr -> IMap.add r (frame_reg fr r) m
          | None -> m
        (* halted thread: no post frame, nothing known *))
      IMap.empty
      (Res_ir.Func.all_regs f)
  in
  Res_symex.Symframe.pre_frame ~func ~block:block_label ~seed

(** Equality constraints between the execution's final bottom-frame
    registers and the snapshot's root frame. *)
let reg_constraints ctx ~tid ~func (out_bottom : Res_symex.Symframe.t) ~post_root =
  match post_root with
  | None -> []  (* halted thread: the coredump records no registers *)
  | Some post ->
      let f = Res_ir.Prog.func ctx.prog func in
      List.filter_map
        (fun r ->
          if List.mem (tid, r) ctx.relaxed_regs then None
          else
            match Res_symex.Symframe.read_opt out_bottom r with
            | None -> None (* untouched: pre = post, carried in Spre *)
            | Some out_v -> (
                match Simplify.norm (Expr.eq out_v (frame_reg post r)) with
                | Expr.Const _ as c ->
                    if Expr.equal c Expr.one then None else Some Expr.zero
                | e -> Some e))
        (Res_ir.Func.all_regs f)

(** For partial (in-progress) segments: the inlined callee frames at the
    stop point must match the coredump's frames register-for-register. *)
let callee_frame_constraints (out_frames : Res_symex.Symframe.t list)
    (post_frames : Res_symex.Symframe.t list) =
  (* both innermost-first; compare all but the last (root) *)
  let drop_root l = match List.rev l with _ :: rest -> List.rev rest | [] -> [] in
  let outs = drop_root out_frames and posts = drop_root post_frames in
  if List.length outs <> List.length posts then None
  else
    let constraint_of (o : Res_symex.Symframe.t) (p : Res_symex.Symframe.t) =
      if o.Res_symex.Symframe.ret_reg <> p.Res_symex.Symframe.ret_reg then None
      else
        let regs =
          List.sort_uniq compare
            (List.map fst (Res_symex.Symframe.reg_bindings o)
            @ List.map fst (Res_symex.Symframe.reg_bindings p))
        in
        Some
          (List.filter_map
             (fun r ->
               match Simplify.norm (Expr.eq (frame_reg o r) (frame_reg p r)) with
               | Expr.Const _ as c ->
                   if Expr.equal c Expr.one then None else Some Expr.zero
               | e -> Some e)
             regs)
    in
    let rec zip acc = function
      | [], [] -> Some acc
      | o :: os, p :: ps -> (
          match constraint_of o p with
          | Some cs -> zip (cs @ acc) (os, ps)
          | None -> None)
      | _ -> None
    in
    zip [] (outs, posts)

(** Memory compatibility: every location this execution wrote must end with
    the snapshot's value; every pre symbol minted for a location the
    execution did not overwrite equals the snapshot's value. *)
let mem_constraints ctx snapshot (out : Res_symex.Symexec.outcome) =
  let written = Res_symex.Symmem.final_writes out.Res_symex.Symexec.mem in
  let write_cs =
    List.filter_map
      (fun (a, e) ->
        if ISet.mem a ctx.relaxed_mem then None
        else
          match Simplify.norm (Expr.eq e (Snapshot.read_mem snapshot a)) with
          | Expr.Const _ as c -> if Expr.equal c Expr.one then None else Some Expr.zero
          | c -> Some c)
      written
  in
  let pre_cs =
    List.filter_map
      (fun (a, s) ->
        if
          Res_symex.Symmem.was_written out.Res_symex.Symexec.mem a
          || ISet.mem a ctx.relaxed_mem
        then None
        else
          match
            Simplify.norm (Expr.eq (Expr.Sym s) (Snapshot.read_mem snapshot a))
          with
          | Expr.Const _ as c -> if Expr.equal c Expr.one then None else Some Expr.zero
          | c -> Some c)
      (Res_symex.Symmem.pre_syms out.Res_symex.Symexec.mem)
  in
  write_cs @ pre_cs

(** Spawn compatibility: each spawn in the segment must correspond to a
    snapshot thread sitting unborn-eligible at the entry of the spawned
    function, and the spawn arguments must equal that thread's parameter
    registers.  Returns the constraints and the tids to remove from the
    pre-snapshot. *)
let spawn_constraints ctx snapshot (out : Res_symex.Symexec.outcome) =
  let check (tid, fname, args) =
    match IMap.find_opt tid snapshot.Snapshot.threads with
    | None -> Error (Fmt.str "spawned thread %d not in snapshot" tid)
    | Some ts -> (
        match ts.Snapshot.ts_frames with
        | [ fr ]
          when String.equal fr.Res_symex.Symframe.func fname
               && fr.Res_symex.Symframe.idx = 0
               && String.equal fr.Res_symex.Symframe.block
                    (Res_ir.Prog.func ctx.prog fname).Res_ir.Func.entry
               && ts.Snapshot.ts_status = Res_vm.Thread.Runnable ->
            let params = (Res_ir.Prog.func ctx.prog fname).Res_ir.Func.params in
            if List.length params <> List.length args then
              Error "spawn arity mismatch"
            else
              Ok
                ( List.filter_map
                    (fun (p, arg) ->
                      match Simplify.norm (Expr.eq arg (frame_reg fr p)) with
                      | Expr.Const _ as c ->
                          if Expr.equal c Expr.one then None else Some Expr.zero
                      | e -> Some e)
                    (List.combine params args),
                  tid )
        | _ -> Error (Fmt.str "thread %d is not at its entry point" tid))
  in
  let rec go acc_cs acc_tids = function
    | [] -> Ok (acc_cs, acc_tids)
    | s :: rest -> (
        match check s with
        | Ok (cs, tid) -> go (cs @ acc_cs) (tid :: acc_tids) rest
        | Error e -> Error e)
  in
  go [] [] out.Res_symex.Symexec.spawns

(* --- the step itself --- *)

(** Run the executor with the eager-read fixpoint: a location read before
    being overwritten later in the same block must not trust the post-state
    value, so such locations are re-run havocked until stable. *)
let run_with_havoc ctx rq =
  let rec go havoc iters =
    let outs, rejects =
      Res_symex.Symexec.run ~config:ctx.sym_config
        { rq with Res_symex.Symexec.havoc_reads = havoc }
    in
    let need =
      List.fold_left
        (fun acc (o : Res_symex.Symexec.outcome) ->
          let written =
            ISet.of_list (Res_symex.Symmem.written_addrs o.Res_symex.Symexec.mem)
          in
          ISet.union acc (ISet.inter o.Res_symex.Symexec.read_before_write written))
        ISet.empty outs
    in
    if ISet.subset need havoc || iters <= 0 then (outs, rejects)
    else go (ISet.union havoc need) (iters - 1)
  in
  go ISet.empty 4

(** Fresh symbol for the unknown pre value of a defined register never read
    before being written. *)
let fresh_pre_reg r = Expr.fresh ("pre:r" ^ string_of_int r ^ "!")

(** Fresh symbol for the unknown pre value of a written memory word. *)
let fresh_pre_mem a = Expr.fresh (Res_symex.Symmem.pre_mem_name a ^ "!")

(** Construct the pre-snapshot register file for the stepped thread. *)
let pre_regs_of ctx ~func ~block_label ~post_root
    (out : Res_symex.Symexec.outcome) =
  let f = Res_ir.Prog.func ctx.prog func in
  let block = Res_ir.Prog.block ctx.prog ~func ~label:block_label in
  let defined = Res_ir.Block.defined_regs block in
  let out_bottom = List.rev out.Res_symex.Symexec.frames |> List.hd in
  (* The pre value of a register the block does not modify: the post value
     when known, else the pre symbol the execution minted on read, else a
     fresh unconstrained symbol (halted threads record no registers). *)
  let carried r =
    match post_root with
    | Some fr -> frame_reg fr r
    | None -> (
        match List.assoc_opt r out.Res_symex.Symexec.pre_regs with
        | Some s -> Expr.Sym s
        | None -> fresh_pre_reg r)
  in
  List.fold_left
    (fun m r ->
      let v =
        if not (List.mem r defined) then carried r
        else
          match Res_symex.Symframe.read_opt out_bottom r with
          | None ->
              (* defined but never executed (partial segment): unchanged *)
              carried r
          | Some _ -> (
              match List.assoc_opt r out.Res_symex.Symexec.pre_regs with
              | Some s -> Expr.Sym s
              | None -> fresh_pre_reg r)
      in
      IMap.add r v m)
    IMap.empty (Res_ir.Func.all_regs f)

(** Pre-snapshot memory overrides for the stepped segment. *)
let pre_mem_over snapshot (out : Res_symex.Symexec.outcome) =
  let pre = Res_symex.Symmem.pre_syms out.Res_symex.Symexec.mem in
  List.fold_left
    (fun snap a ->
      let v =
        match List.assoc_opt a pre with
        | Some s -> Expr.Sym s
        | None -> fresh_pre_mem a
      in
      Snapshot.write_mem_over snap a v)
    snapshot
    (Res_symex.Symmem.written_addrs out.Res_symex.Symexec.mem)

(** Reconstruct the pre-heap an outcome started from: apply its journal in
    reverse to the post heap (un-free what it freed, un-allocate what it
    allocated, newest allocation first). *)
let pre_heap_of snapshot (out : Res_symex.Symexec.outcome) =
  let h =
    List.fold_left
      (fun h base -> Res_mem.Heap.unfree h base)
      snapshot.Snapshot.heap out.Res_symex.Symexec.frees
  in
  List.fold_left
    (fun h (base, _) -> Res_mem.Heap.unalloc h base)
    h
    (List.rev out.Res_symex.Symexec.allocs)

(** Plausible mapped addresses for unconstrained pointers, most promising
    first: addresses the already-synthesized suffix touched, then the
    snapshot's symbolic cells, then global words, then live heap words. *)
let build_addr_pool ctx (snapshot : Snapshot.t) ~addr_hint =
  let globals =
    List.concat_map
      (fun (base, size, _) -> List.init size (fun i -> base + i))
      ctx.layout.Res_mem.Layout.names
  in
  let heap_words =
    List.concat_map
      (fun (b : Res_mem.Heap.block) ->
        List.init (min b.size 16) (fun i -> b.base + i))
      (Res_mem.Heap.live_blocks snapshot.Snapshot.heap)
  in
  let seen = Hashtbl.create 64 in
  let dedup l =
    List.filter
      (fun a ->
        if Hashtbl.mem seen a then false
        else (
          Hashtbl.add seen a ();
          true))
      l
  in
  let pool = dedup (addr_hint @ Snapshot.symbolic_addrs snapshot @ globals @ heap_words) in
  List.filteri (fun i _ -> i < 96) pool

(* --- concrete reverse-execution fast path --- *)

let invert_verdict ctx ~func ~block_label =
  let key = (func, block_label) in
  match Hashtbl.find_opt ctx.invert_memo key with
  | Some v -> v
  | None ->
      let v =
        match Res_ir.Prog.block ctx.prog ~func ~label:block_label with
        | exception Not_found ->
            Res_static.Invert.Not_invertible "unknown block"
        | b -> Res_static.Invert.classify b
      in
      Hashtbl.add ctx.invert_memo key v;
      v

(** Occurrence count of every symbol in the snapshot — constraints,
    memory overrides, and every thread's frame registers.  A symbol that
    occurs exactly once, as the bare value of a post-frame register, is
    {e free}: nothing else can force it, so the compatibility equality
    the symbolic path would emit against it is satisfiable for any
    execution — the reverse engine may treat the register as a wildcard
    ([Revexec.P_free]).  Counting per expression site ([Expr.syms]
    de-duplicates within one expression) is enough: a second site, or a
    compound slot, already disqualifies the symbol. *)
let snapshot_sym_counts (snapshot : Snapshot.t) =
  let counts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let count_expr e =
    Expr.Sym_set.iter
      (fun s ->
        Hashtbl.replace counts s.Expr.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.Expr.id)))
      (Expr.syms e)
  in
  List.iter count_expr snapshot.Snapshot.constraints;
  IMap.iter (fun _ e -> count_expr e) snapshot.Snapshot.mem_over;
  IMap.iter
    (fun _ (ts : Snapshot.thread_state) ->
      List.iter
        (fun fr ->
          List.iter (fun (_, e) -> count_expr e) (Res_symex.Symframe.reg_bindings fr))
        ts.Snapshot.ts_frames)
    snapshot.Snapshot.threads;
  counts

(** Try to decide a [K_full] move concretely: when the candidate block is
    statically invertible and the segment's post-state is concrete, the
    reverse engine either recovers the unique pre-state or proves no
    pre-state exists — skipping symbolic execution {e and} the solver.
    [None] means the question could not be settled concretely and the
    caller must fall back to the symbolic step. *)
let fast_reverse ctx (snapshot : Snapshot.t) ~tid ~func ~block_label
    ~(post_root : Res_symex.Symframe.t option) ~require_target :
    step_result option =
  match post_root with
  | None -> None
  | Some post when ctx.relaxed_regs <> [] || not (ISet.is_empty ctx.relaxed_mem)
    ->
      ignore post;
      (* relaxation hypotheses exempt locations from consistency — only
         the solver knows which, so stay symbolic *)
      None
  | Some post -> (
      match invert_verdict ctx ~func ~block_label with
      | Res_static.Invert.Not_invertible _ -> None
      | Res_static.Invert.Invertible plan -> (
          let f = Res_ir.Prog.func ctx.prog func in
          let block = Res_ir.Prog.block ctx.prog ~func ~label:block_label in
          let concrete e = Expr.const_val (Simplify.norm e) in
          let sym_counts = lazy (snapshot_sym_counts snapshot) in
          let post_reg r =
            let e = frame_reg post r in
            match concrete e with
            | Some v -> Res_static.Revexec.P_val v
            | None -> (
                match e with
                | Expr.Sym s
                  when Hashtbl.find_opt (Lazy.force sym_counts) s.Expr.id
                       = Some 1 ->
                    Res_static.Revexec.P_free
                | _ -> Res_static.Revexec.P_sym)
          in
          let oracle =
            {
              Res_static.Revexec.post_reg;
              read_post = (fun a -> concrete (Snapshot.read_mem snapshot a));
              is_mapped =
                (fun a ->
                  if Res_mem.Layout.in_heap_region a then
                    match Res_mem.Heap.check_access snapshot.Snapshot.heap a with
                    | Res_mem.Heap.Ok_access _ -> true
                    | _ -> false
                  else Res_mem.Layout.find_global ctx.layout a <> None);
              global_base =
                (fun g ->
                  match Res_mem.Layout.global_base ctx.layout g with
                  | base -> Some base
                  | exception Not_found -> None);
              require_target;
              regs = Res_ir.Func.all_regs f;
            }
          in
          match Res_static.Revexec.run block plan oracle with
          | Res_static.Revexec.Unknown _ -> None
          | Res_static.Revexec.Infeasible msg ->
              Some
                {
                  applied = [];
                  rejects = [ Fmt.str "reverse-exec: %s" msg ];
                  reversed = 1;
                  slice_skipped = plan.Res_static.Invert.pl_skipped;
                }
          | Res_static.Revexec.Reversed rs ->
              (* Mirror [apply_outcome]'s construction exactly: recovered
                 values become constants, unobserved pre-values become the
                 same fresh symbols the symbolic path would mint, and no
                 constraints are added (every recovered value is forced,
                 so the constraint set stays satisfiability-equivalent). *)
              let defined = plan.Res_static.Invert.pl_defined in
              let live_in = plan.Res_static.Invert.pl_live_in in
              let regs =
                List.fold_left
                  (fun m r ->
                    let v =
                      if not (Res_static.Invert.ISet.mem r defined) then
                        frame_reg post r
                      else if Res_static.Invert.ISet.mem r live_in then
                        Expr.const
                          (Res_static.Revexec.IMap.find r
                             rs.Res_static.Revexec.rs_entry_regs)
                      else fresh_pre_reg r
                    in
                    IMap.add r v m)
                  IMap.empty (Res_ir.Func.all_regs f)
              in
              let pre_frame =
                {
                  Res_symex.Symframe.func;
                  block = block_label;
                  idx = 0;
                  regs;
                  ret_reg = None;
                  lazy_pre = false;
                }
              in
              let snap =
                List.fold_left
                  (fun s (a, v) -> Snapshot.write_mem_over s a (Expr.const v))
                  snapshot rs.Res_static.Revexec.rs_pre_mem
              in
              let snap =
                List.fold_left
                  (fun s a ->
                    Snapshot.write_mem_over s a (fresh_pre_mem a))
                  snap rs.Res_static.Revexec.rs_fresh_mem
              in
              let snap =
                Snapshot.with_thread snap
                  {
                    Snapshot.ts_tid = tid;
                    ts_frames = [ pre_frame ];
                    ts_status = Res_vm.Thread.Runnable;
                    ts_stepped = true;
                  }
              in
              let segment =
                {
                  Suffix.seg_tid = tid;
                  seg_func = func;
                  seg_block = block_label;
                  seg_end = Suffix.Seg_branch rs.Res_static.Revexec.rs_target;
                  seg_writes = rs.Res_static.Revexec.rs_writes;
                  seg_reads = rs.Res_static.Revexec.rs_reads;
                  seg_inputs = [];
                  seg_lock_ops = [];
                  seg_allocs = [];
                  seg_spawns = [];
                  seg_frees = [];
                  seg_steps = rs.Res_static.Revexec.rs_steps;
                }
              in
              Some
                {
                  applied =
                    [ { ap_snapshot = snap; ap_segment = segment; ap_logs = [] } ];
                  rejects = [];
                  reversed = 1;
                  slice_skipped = plan.Res_static.Invert.pl_skipped;
                }))

(** Apply one candidate backward move for thread [tid].  Returns every
    feasible application (several execution paths of the candidate block
    may be compatible) plus reject diagnostics.  [addr_hint] biases
    unconstrained-pointer resolution toward addresses the suffix already
    touches.  [reverse_exec] enables the concrete reverse-execution fast
    path for invertible full-block segments. *)
let rec step_back ?(addr_hint = []) ?(reverse_exec = true) ctx
    (snapshot : Snapshot.t) ~tid ~(kind : kind) : step_result =
  let ts = Snapshot.thread snapshot tid in
  let post_root = root_frame ts in
  (* Resolve the candidate block and execution mode. *)
  let resolved =
    match kind with
    | K_partial crash -> (
        match post_root with
        | None -> Error "partial step of a frameless thread"
        | Some root ->
            let stack =
              List.rev_map
                (fun (fr : Res_symex.Symframe.t) ->
                  (fr.Res_symex.Symframe.func, fr.Res_symex.Symframe.block, fr.Res_symex.Symframe.idx))
                ts.Snapshot.ts_frames
            in
            Ok
              ( root.Res_symex.Symframe.func,
                root.Res_symex.Symframe.block,
                Res_symex.Symexec.Partial { stack; crash } ))
    | K_full { block } -> (
        match post_root with
        | None -> Error "full step of a frameless thread"
        | Some root ->
            if root.Res_symex.Symframe.idx <> 0 || List.length ts.Snapshot.ts_frames <> 1
            then Error "thread is not at a segment boundary"
            else
              Ok
                ( root.Res_symex.Symframe.func,
                  block,
                  Res_symex.Symexec.Full
                    { require_target = Some root.Res_symex.Symframe.block } ))
    | K_final { func; block } ->
        if ts.Snapshot.ts_status <> Res_vm.Thread.Halted then
          Error "final step of a non-halted thread"
        else Ok (func, block, Res_symex.Symexec.Full { require_target = None })
  in
  match resolved with
  | Error msg -> no_result msg
  | Ok (func, block_label, mode) -> (
      (* Concrete reverse-execution fast path: a proven-invertible
         full-block segment with a concrete post-state is decided without
         symbolic execution or the solver. *)
      let fast =
        if not reverse_exec then None
        else
          match (kind, mode) with
          | K_full _, Res_symex.Symexec.Full { require_target = Some target }
            -> (
              match
                fast_reverse ctx snapshot ~tid ~func ~block_label ~post_root
                  ~require_target:target
              with
              | exception Not_found -> None
              | r -> r)
          | _ -> None
      in
      match fast with
      | Some r -> r
      | None -> (
      (* Static effects: allocation plan and spawn plan. *)
      match static_block_effects ctx.prog ~func ~block_label with
      | exception Dynamic msg -> no_result msg
      | exception Not_found -> no_result (Fmt.str "unknown function %s" func)
      | effects -> (
          let n_allocs =
            List.length (List.filter (function `Alloc -> true | _ -> false) effects)
          in
          let spawn_fnames =
            List.filter_map (function `Spawn f -> Some f | _ -> None) effects
          in
          (* Choose snapshot threads for each spawned function, ascending tid. *)
          let spawn_plan =
            let eligible fname picked =
              IMap.fold
                (fun tid (ts' : Snapshot.thread_state) best ->
                  if List.mem tid picked || tid = ts.Snapshot.ts_tid then best
                  else
                    match (best, ts'.Snapshot.ts_frames) with
                    | Some _, _ -> best
                    | None, [ fr ]
                      when String.equal fr.Res_symex.Symframe.func fname
                           && fr.Res_symex.Symframe.idx = 0
                           && String.equal fr.Res_symex.Symframe.block
                                (Res_ir.Prog.func ctx.prog fname).Res_ir.Func.entry
                           && ts'.Snapshot.ts_status = Res_vm.Thread.Runnable ->
                        Some tid
                    | None, _ -> None)
                snapshot.Snapshot.threads None
            in
            List.fold_left
              (fun acc fname ->
                match acc with
                | Error _ as e -> e
                | Ok picked -> (
                    match eligible fname picked with
                    | Some tid -> Ok (picked @ [ tid ])
                    | None ->
                        Error (Fmt.str "no unborn thread available for %s" fname)))
              (Ok []) spawn_fnames
          in
          match spawn_plan with
          | Error msg -> no_result msg
          | Ok spawn_plan -> (
              match
                heap_surgery ctx snapshot.Snapshot.heap ~func ~block_label ~n_allocs
              with
              | Error msg -> no_result msg
              | exception Invalid_argument msg -> no_result msg
              | Ok (pre_heap, alloc_plan) ->
                  let frame = seed_frame ctx ~post_root ~func ~block_label in
                  let rq =
                    {
                      Res_symex.Symexec.prog = ctx.prog;
                      layout = ctx.layout;
                      tid;
                      frame;
                      heap = pre_heap;
                      post_mem = Snapshot.read_mem snapshot;
                      havoc_reads = ISet.empty;
                      ambient = snapshot.Snapshot.constraints;
                      addr_pool =
                        (if ctx.use_addr_pool then
                           build_addr_pool ctx snapshot ~addr_hint
                         else []);
                      alloc_plan;
                      spawn_plan;
                      dynamic_alloc = false;
                      mode;
                    }
                  in
                  let outs, rejects = run_with_havoc ctx rq in
                  let applied =
                    List.filter_map
                      (fun (out : Res_symex.Symexec.outcome) ->
                        apply_outcome ctx snapshot ~tid ~func ~block_label
                          ~post_root ~kind out)
                      outs
                  in
                  { applied; rejects; reversed = 0; slice_skipped = 0 }))))

(** Check one execution outcome against the snapshot and build the
    pre-snapshot if compatible. *)
and apply_outcome ctx snapshot ~tid ~func ~block_label ~post_root ~kind
    (out : Res_symex.Symexec.outcome) : applied option =
  let ts = Snapshot.thread snapshot tid in
  (* A halted thread's terminal segment must actually end the thread. *)
  let stop_ok =
    match (kind, out.Res_symex.Symexec.stop) with
    | K_final _, (Res_symex.Symexec.Returned _ | Res_symex.Symexec.Halted) -> true
    | K_final _, _ -> false
    | (K_partial _ | K_full _), _ -> true
  in
  if not stop_ok then None
    (* Heap structure must match exactly. *)
  else if
    not (Res_mem.Heap.similar out.Res_symex.Symexec.heap snapshot.Snapshot.heap)
  then None
  else
    (* Joined threads must exist.  They need not be halted in this
       snapshot: a block that spawns and joins the same thread blocks
       mid-segment and resumes after the target halts — the replayer
       handles that, and the exact-coredump check validates the schedule. *)
    let joins_ok =
      List.for_all
        (fun jt -> IMap.mem jt snapshot.Snapshot.threads)
        out.Res_symex.Symexec.joins
    in
    if not joins_ok then None
    else
      let out_bottom = List.rev out.Res_symex.Symexec.frames |> List.hd in
      let reg_cs = reg_constraints ctx ~tid ~func out_bottom ~post_root in
      let callee_cs =
        match kind with
        | K_partial _ ->
            callee_frame_constraints out.Res_symex.Symexec.frames
              ts.Snapshot.ts_frames
        | K_full _ | K_final _ -> Some []
      in
      match callee_cs with
      | None -> None
      | Some callee_cs -> (
          let mem_cs = mem_constraints ctx snapshot out in
          match spawn_constraints ctx snapshot out with
          | Error _ -> None
          | Ok (spawn_cs, spawned_tids) -> (
              let new_cs =
                out.Res_symex.Symexec.path @ reg_cs @ callee_cs @ mem_cs @ spawn_cs
              in
              let all_cs = new_cs @ snapshot.Snapshot.constraints in
              match Solver.solve ~config:ctx.solver_config all_cs with
              | Solver.Unsat | Solver.Unknown -> None
              | Solver.Sat _ ->
                  (* Build Spre. *)
                  let regs = pre_regs_of ctx ~func ~block_label ~post_root out in
                  let pre_frame =
                    {
                      Res_symex.Symframe.func;
                      block = block_label;
                      idx = 0;
                      regs;
                      ret_reg = None;
                      lazy_pre = false;
                    }
                  in
                  let snap = pre_mem_over snapshot out in
                  let snap =
                    Snapshot.with_thread snap
                      {
                        Snapshot.ts_tid = tid;
                        ts_frames = [ pre_frame ];
                        ts_status = Res_vm.Thread.Runnable;
                        ts_stepped = true;
                      }
                  in
                  let snap =
                    {
                      snap with
                      Snapshot.heap = pre_heap_of snapshot out;
                      threads =
                        List.fold_left
                          (fun m t -> IMap.remove t m)
                          snap.Snapshot.threads spawned_tids;
                    }
                  in
                  let snap = Snapshot.add_constraints snap new_cs in
                  let seg_end =
                    match (kind, out.Res_symex.Symexec.stop) with
                    | K_partial (Some k), _ -> Suffix.Seg_crash k
                    | K_partial None, _ -> Suffix.Seg_blocked
                    | _, Res_symex.Symexec.Fell_to l -> Suffix.Seg_branch l
                    | _, Res_symex.Symexec.Returned _ -> Suffix.Seg_ret
                    | _, Res_symex.Symexec.Halted -> Suffix.Seg_halt
                    | _, Res_symex.Symexec.Crashed_here -> Suffix.Seg_blocked
                  in
                  let segment =
                    {
                      Suffix.seg_tid = tid;
                      seg_func = func;
                      seg_block = block_label;
                      seg_end;
                      seg_writes =
                        Res_symex.Symmem.written_addrs out.Res_symex.Symexec.mem;
                      seg_reads = ISet.elements out.Res_symex.Symexec.read_before_write;
                      seg_inputs = out.Res_symex.Symexec.inputs;
                      seg_lock_ops = out.Res_symex.Symexec.lock_ops;
                      seg_allocs = List.map fst out.Res_symex.Symexec.allocs;
                      seg_spawns =
                        List.map (fun (t, _, _) -> t) out.Res_symex.Symexec.spawns;
                      seg_frees = out.Res_symex.Symexec.frees;
                      seg_steps = out.Res_symex.Symexec.steps;
                    }
                  in
                  Some
                    {
                      ap_snapshot = snap;
                      ap_segment = segment;
                      ap_logs = out.Res_symex.Symexec.logs;
                    }))

