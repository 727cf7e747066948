(** Forward symbolic execution of one basic block (with calls inlined).

    This is the dynamic half of RES's per-block alternation (paper §2.3):
    given a candidate predecessor block and a lazily-symbolic pre-state, it
    executes the block forward, journaling reads, writes, inputs, and path
    constraints, so the backward stepper can check compatibility with the
    post-state snapshot.  The same engine drives the forward execution
    synthesis baseline.

    Mid-block [call]s are {e re-executed forward} (inlined, forking on
    symbolic branches) rather than reverse-analyzed — the paper's §6
    strategy for hard-to-invert constructs. *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)
open Res_solver

type config = {
  max_steps : int;  (** fuel across all forks of one request *)
  max_outcomes : int;  (** cap on feasible outcomes returned *)
  max_addr_candidates : int;  (** fork bound for ambiguous addresses *)
  inline_calls : bool;
      (** forward re-execution of mid-block calls (paper §6); disabling it
          models a reverse-only analyzer that cannot cross hard constructs *)
  interrupt : unit -> bool;
      (** cooperative interrupt, polled once per interpreted instruction:
          when it returns [true] the remaining forks are abandoned and the
          request finishes with whatever outcomes it already has *)
  solver : Solver.config;
}

let default_config =
  {
    max_steps = 4000;
    max_outcomes = 8;
    max_addr_candidates = 4;
    inline_calls = true;
    interrupt = (fun () -> false);
    solver = Solver.default_config;
  }

(** How the bottom-frame block execution is allowed to end. *)
type mode =
  | Full of { require_target : Res_ir.Instr.label option }
      (** run through the terminator; if a target is given, the branch must
          go there *)
  | Partial of {
      stack : (string * Res_ir.Instr.label * int) list;
          (** where execution stops: the coredump's frame positions,
              outermost (root) frame first — the crash may sit inside an
              inlined callee *)
      crash : Res_vm.Crash.kind option;
          (** faulting behaviour of the instruction at the stop point *)
    }

type stop =
  | Fell_to of Res_ir.Instr.label
  | Returned of Expr.t option
  | Halted
  | Crashed_here

(** Journal of one completed execution path. *)
type outcome = {
  stop : stop;
  frames : Symframe.t list;  (** frame stack at the stop point *)
  mem : Symmem.t;
  heap : Res_mem.Heap.t;
  path : Expr.t list;  (** path constraints accumulated, newest first *)
  pre_regs : (Res_ir.Instr.reg * Expr.sym) list;
      (** pre-state symbols minted for bottom-frame registers *)
  inputs : (Res_ir.Instr.input_kind * Expr.sym) list;  (** consumption order *)
  allocs : (int * Expr.t) list;  (** (base, size expr), oldest first *)
  frees : int list;
  lock_ops : (bool * int) list;  (** (true=lock, addr), oldest first *)
  logs : (string * Expr.t) list;
  spawns : (int * string * Expr.t list) list;
      (** (tid created, function, argument exprs) *)
  joins : int list;  (** tids joined, oldest first *)
  read_before_write : ISet.t;  (** addrs whose first access was a read *)
  steps : int;
}

type request = {
  prog : Res_ir.Prog.t;
  layout : Res_mem.Layout.t;
  tid : int;
  frame : Symframe.t;  (** seeded bottom frame, positioned at block start *)
  heap : Res_mem.Heap.t;  (** heap state at block entry *)
  post_mem : int -> Expr.t;
      (** optimistic read of an address never touched by this block *)
  havoc_reads : ISet.t;
      (** addresses whose first read must mint a fresh symbol instead of
          trusting [post_mem] (they are overwritten later in the block) *)
  ambient : Expr.t list;  (** suffix constraints, used for concretization *)
  addr_pool : int list;
      (** plausible concrete addresses (mapped words, recently-touched
          first) used when an address expression is unconstrained — e.g. a
          pointer register havocked by the backward walk *)
  alloc_plan : (int * int) list;
      (** (base, size) for each [alloc] the block performs, in order, taken
          from the post-state heap's allocation record *)
  spawn_plan : int list;
      (** tids for each [spawn] the block performs, in order — the identities
          of snapshot threads whose birth lies in this block *)
  dynamic_alloc : bool;
      (** forward-synthesis mode: when the alloc plan is exhausted, allocate
          at the bump pointer with a solver-concretized size instead of
          rejecting (backward mode wants the reject) *)
  mode : mode;
}

(* --- internal search state (one fork) --- *)

type st = {
  frames : Symframe.t list;
  mem : Symmem.t;
  heap : Res_mem.Heap.t;
  path : Expr.t list;
  pre_regs : (Res_ir.Instr.reg * Expr.sym) list;
  inputs_rev : (Res_ir.Instr.input_kind * Expr.sym) list;
  allocs_rev : (int * Expr.t) list;
  frees_rev : int list;
  locks_rev : (bool * int) list;
  logs_rev : (string * Expr.t) list;
  rbw : ISet.t;
  plan : (int * int) list;
  sp_plan : int list;
  spawns_rev : (int * string * Expr.t list) list;
  joins_rev : int list;
  steps : int;
}

exception Reject of string

let init_st (rq : request) =
  {
    frames = [ rq.frame ];
    mem = Symmem.empty;
    heap = rq.heap;
    path = [];
    pre_regs = [];
    inputs_rev = [];
    allocs_rev = [];
    frees_rev = [];
    locks_rev = [];
    logs_rev = [];
    rbw = ISet.empty;
    plan = rq.alloc_plan;
    sp_plan = rq.spawn_plan;
    spawns_rev = [];
    joins_rev = [];
    steps = 0;
  }

let finish (st : st) stop =
  {
    stop;
    frames = st.frames;
    mem = st.mem;
    heap = st.heap;
    path = st.path;
    pre_regs = List.rev st.pre_regs;
    inputs = List.rev st.inputs_rev;
    allocs = List.rev st.allocs_rev;
    frees = List.rev st.frees_rev;
    lock_ops = List.rev st.locks_rev;
    logs = List.rev st.logs_rev;
    spawns = List.rev st.spawns_rev;
    joins = List.rev st.joins_rev;
    read_before_write = st.rbw;
    steps = st.steps;
  }

let top st = List.hd st.frames

let with_top st fr =
  match st.frames with
  | _ :: rest -> { st with frames = fr :: rest }
  | [] -> assert false

let is_bottom st = match st.frames with [ _ ] -> true | _ -> false

(** Read register [r] of the top frame.  In the lazy bottom frame an unset
    register stands for unknown pre-block state and mints a fresh symbol;
    in callee frames it is a zero-initialized register. *)
let read_reg st r =
  let fr = top st in
  match Symframe.read_opt fr r with
  | Some e -> (e, st)
  | None ->
      if fr.Symframe.lazy_pre then (
        let s = Expr.fresh_sym ("pre:r" ^ string_of_int r) in
        let st = with_top st (Symframe.write fr r (Expr.Sym s)) in
        (Expr.Sym s, { st with pre_regs = (r, s) :: st.pre_regs }))
      else (Expr.zero, st)

let write_reg st r e = with_top st (Symframe.write (top st) r e)

(** Read memory, routing through the pre-symbol machinery. *)
let read_mem (rq : request) st addr =
  if Symmem.was_written st.mem addr then
    let e, mem = Symmem.read st.mem addr in
    (e, { st with mem })
  else
    let st = { st with rbw = ISet.add addr st.rbw } in
    if ISet.mem addr rq.havoc_reads then
      let e, mem = Symmem.read st.mem addr in
      (e, { st with mem })
    else (rq.post_mem addr, st)

let write_mem st addr e = { st with mem = Symmem.write st.mem addr e }

(** Whether a concrete address is mapped (globals word or live heap word) —
    unmapped addresses cannot be accessed on a non-crashing path. *)
let is_mapped (rq : request) st addr =
  if Res_mem.Layout.in_heap_region addr then
    match Res_mem.Heap.check_access st.heap addr with
    | Res_mem.Heap.Ok_access _ -> true
    | _ -> false
  else Res_mem.Layout.find_global rq.layout addr <> None

(** Resolve an address expression to concrete, {e mapped} candidates.
    A concrete expression resolves immediately.  A meaningfully-constrained
    one is enumerated via the solver.  An unconstrained one (the solver's
    enumeration hits its cap, or comes back unknown) falls back to the
    address pool: plausible mapped words, recently-touched first, filtered
    for feasibility.  Raises {!Reject} when nothing mapped is feasible. *)
let concretize_addr cfg (rq : request) st e =
  let e = Simplify.norm e in
  match Expr.const_val e with
  | Some v ->
      if is_mapped rq st v then [ (v, st) ]
      else raise (Reject (Fmt.str "access to unmapped 0x%x" v))
  | None -> (
      let constraints = st.path @ rq.ambient in
      let with_binding v = (v, { st with path = Expr.eq e (Expr.const v) :: st.path }) in
      (* the first [max_addr_candidates] feasible pool addresses: the
         filter stops at the last one it keeps *)
      let from_pool () =
        let rec first n = function
          | [] -> []
          | _ when n <= 0 -> []
          | a :: rest ->
              if
                is_mapped rq st a
                && Solver.is_sat ~config:cfg.solver
                     (Expr.eq e (Expr.const a) :: constraints)
              then with_binding a :: first (n - 1) rest
              else first n rest
        in
        first cfg.max_addr_candidates rq.addr_pool
      in
      let result =
        match
          Solver.concretize ~config:cfg.solver ~constraints
            ~max_candidates:cfg.max_addr_candidates e
        with
        | Ok [] -> []
        | Ok vs when List.length vs < cfg.max_addr_candidates ->
            (* genuinely constrained: keep the mapped ones *)
            List.filter_map
              (fun v -> if is_mapped rq st v then Some (with_binding v) else None)
              vs
        | Ok vs -> (
            (* enumeration hit the cap: likely unconstrained *)
            match from_pool () with
            | [] ->
                List.filter_map
                  (fun v -> if is_mapped rq st v then Some (with_binding v) else None)
                  vs
            | pool -> pool)
        | Error `Unknown -> from_pool ()
      in
      match result with
      | [] -> raise (Reject "no feasible mapped address")
      | _ -> result)

(* --- crash-site constraints --- *)

(** The constraint that the instruction at the crash site faults in the
    recorded way, given the current state.  Returns the constraint list
    and the state (register reads may mint pre symbols). *)
let crash_constraints (rq : request) st (kind : Res_vm.Crash.kind option) =
  let fr = top st in
  let block = Res_ir.Prog.block rq.prog ~func:fr.Symframe.func ~label:fr.Symframe.block in
  match kind with
  | None -> ([], st)
  | Some kind -> (
      let instr_opt =
        if fr.Symframe.idx < Res_ir.Block.length block then
          Some (Res_ir.Block.instr block fr.Symframe.idx)
        else None
      in
      let addr_of_access st =
        match instr_opt with
        | Some (Res_ir.Instr.Load (_, a, off)) | Some (Res_ir.Instr.Store (a, off, _)) ->
            let e, st = read_reg st a in
            (Some (Simplify.norm (Expr.add e (Expr.const off))), st)
        | Some (Res_ir.Instr.Free a) | Some (Res_ir.Instr.Lock a) ->
            let e, st = read_reg st a in
            (Some (Simplify.norm e), st)
        | _ -> (None, st)
      in
      match kind with
      | Res_vm.Crash.Assert_fail _ -> (
          match instr_opt with
          | Some (Res_ir.Instr.Assert (r, _)) ->
              let v, st = read_reg st r in
              ([ Expr.eq v Expr.zero ], st)
          | _ -> raise (Reject "crash pc is not an assert"))
      | Res_vm.Crash.Div_by_zero -> (
          match instr_opt with
          | Some (Res_ir.Instr.Binop ((Res_ir.Instr.Div | Res_ir.Instr.Rem), _, _, b)) ->
              let v, st = read_reg st b in
              ([ Expr.eq v Expr.zero ], st)
          | _ -> raise (Reject "crash pc is not a division"))
      | Res_vm.Crash.Seg_fault a
      | Res_vm.Crash.Out_of_bounds { addr = a; _ }
      | Res_vm.Crash.Use_after_free { addr = a; _ }
      | Res_vm.Crash.Global_overflow { addr = a; _ } -> (
          match addr_of_access st with
          | Some e, st -> ([ Expr.eq e (Expr.const a) ], st)
          | None, _ -> raise (Reject "crash pc is not a memory access"))
      | Res_vm.Crash.Double_free a | Res_vm.Crash.Invalid_free a -> (
          match instr_opt with
          | Some (Res_ir.Instr.Free r) ->
              let v, st = read_reg st r in
              ([ Expr.eq v (Expr.const a) ], st)
          | _ -> raise (Reject (Fmt.str "crash pc is not a free of 0x%x" a)))
      | Res_vm.Crash.Alloc_error n -> (
          match instr_opt with
          | Some (Res_ir.Instr.Alloc (_, s)) ->
              let v, st = read_reg st s in
              ([ Expr.eq v (Expr.const n) ], st)
          | _ -> raise (Reject "crash pc is not an alloc"))
      | Res_vm.Crash.Unlock_error a -> (
          match instr_opt with
          | Some (Res_ir.Instr.Unlock r) ->
              let v, st = read_reg st r in
              let cell, st = read_mem rq st a in
              ( [ Expr.eq v (Expr.const a); Expr.ne cell (Expr.const (rq.tid + 1)) ],
                st )
          | _ -> raise (Reject "crash pc is not an unlock"))
      | Res_vm.Crash.Abort_called _ -> (
          (* the terminator aborts; nothing more to constrain *)
          match instr_opt with
          | None -> ([], st)
          | Some _ -> raise (Reject "abort crash must sit on the terminator"))
      | Res_vm.Crash.Deadlock _ -> (
          (* this thread is parked on a lock whose cell is non-zero *)
          match instr_opt with
          | Some (Res_ir.Instr.Lock r) -> (
              let v, st = read_reg st r in
              match Expr.const_val (Simplify.norm v) with
              | Some a ->
                  let cell, st = read_mem rq st a in
                  ([ Expr.ne cell Expr.zero ], st)
              | None -> raise (Reject "deadlock lock address not concrete"))
          | _ -> raise (Reject "deadlocked thread is not at a lock")))

(* --- the interpreter --- *)

type pending =
  | P_state of st
  | P_done of outcome

let exec (cfg : config) (rq : request) : outcome list * string list =
  let rejects = ref [] in
  let outcomes = ref [] in
  let total_steps = ref 0 in
  let push_reject msg = rejects := msg :: !rejects in
  (* Worklist DFS over forked states. *)
  let rec drive (stack : st list) =
    match stack with
    | [] -> ()
    | st :: rest ->
        if List.length !outcomes >= cfg.max_outcomes then ()
        else if cfg.interrupt () then push_reject "interrupted: budget exhausted"
        else if !total_steps > cfg.max_steps then push_reject "fuel exhausted"
        else begin
          match step st with
          | exception Reject msg ->
              push_reject msg;
              drive rest
          | nexts ->
              let done_, live =
                List.partition_map
                  (function P_done o -> Left o | P_state s -> Right s)
                  nexts
              in
              outcomes := !outcomes @ done_;
              drive (live @ rest)
        end
  (* One instruction (or terminator) of the top frame. *)
  and step (st : st) : pending list =
    incr total_steps;
    let st = { st with steps = st.steps + 1 } in
    let fr = top st in
    let block =
      Res_ir.Prog.block rq.prog ~func:fr.Symframe.func ~label:fr.Symframe.block
    in
    (* Partial mode: stop when the whole frame stack matches the coredump's
       positions (root frame first). *)
    let stack_matches spec =
      let sig_of (f : Symframe.t) = (f.Symframe.func, f.Symframe.block, f.Symframe.idx) in
      let current = List.rev_map sig_of st.frames in
      List.length current = List.length spec
      && List.for_all2
           (fun (f1, b1, i1) (f2, b2, i2) ->
             String.equal f1 f2 && String.equal b1 b2 && i1 = i2)
           current spec
    in
    let stopped =
      match rq.mode with
      | Partial { stack; crash } when stack_matches stack -> (
          match crash_constraints rq st crash with
          | cs, st' ->
              Some (P_done (finish { st' with path = cs @ st'.path } Crashed_here))
          | exception Reject _ -> None)
      | _ -> None
    in
    let continue_steps () =
      if fr.Symframe.idx < Res_ir.Block.length block then
        step_instr st fr (Res_ir.Block.instr block fr.Symframe.idx)
      else step_term st fr block.Res_ir.Block.term
    in
    match stopped with
    | Some done_ ->
        (* The stop position could in principle recur (loops), but the
           first match is canonically the shortest suffix; take it. *)
        [ done_ ]
    | None -> continue_steps ()
  and step_instr st _fr instr =
    let open Res_ir.Instr in
    let advance st = with_top st (Symframe.advance (top st)) in
    match instr with
    | Const (r, n) -> [ P_state (advance (write_reg st r (Expr.const n))) ]
    | Mov (r, a) ->
        let v, st = read_reg st a in
        [ P_state (advance (write_reg st r v)) ]
    | Binop (op, r, a, b) ->
        let va, st = read_reg st a in
        let vb, st = read_reg st b in
        let st =
          (* surviving a division means the divisor was nonzero *)
          if op = Div || op = Rem then { st with path = Expr.ne vb Expr.zero :: st.path }
          else st
        in
        let v = Simplify.norm (Expr.Binop (op, va, vb)) in
        [ P_state (advance (write_reg st r v)) ]
    | Unop (op, r, a) ->
        let v, st = read_reg st a in
        [ P_state (advance (write_reg st r (Simplify.norm (Expr.Unop (op, v))))) ]
    | Load (r, a, off) ->
        let base, st = read_reg st a in
        let addr_e = Simplify.norm (Expr.add base (Expr.const off)) in
        concretize_addr cfg rq st addr_e
        |> List.map (fun (addr, st) ->
               let v, st = read_mem rq st addr in
               P_state (advance (write_reg st r v)))
    | Store (a, off, s) ->
        let base, st = read_reg st a in
        let v, st = read_reg st s in
        let addr_e = Simplify.norm (Expr.add base (Expr.const off)) in
        concretize_addr cfg rq st addr_e
        |> List.map (fun (addr, st) ->
               P_state (advance (write_mem st addr v)))
    | Global_addr (r, g) -> (
        match Res_mem.Layout.global_base rq.layout g with
        | base -> [ P_state (advance (write_reg st r (Expr.const base))) ]
        | exception Not_found -> raise (Reject (Fmt.str "unknown global %s" g)))
    | Alloc (r, s) -> (
        let size_e, st = read_reg st s in
        match st.plan with
        | [] when rq.dynamic_alloc -> (
            (* Forward mode: concretize the size and bump-allocate. *)
            let size =
              match Expr.const_val (Simplify.norm size_e) with
              | Some v -> Some v
              | None ->
                  Solver.unique_value ~config:cfg.solver
                    ~constraints:(st.path @ rq.ambient) size_e
            in
            match size with
            | Some size when size > 0 ->
                let heap, base = Res_mem.Heap.alloc st.heap ~size ~site:None in
                let st =
                  {
                    st with
                    heap;
                    allocs_rev = (base, size_e) :: st.allocs_rev;
                    path = Expr.eq size_e (Expr.const size) :: st.path;
                  }
                in
                [ P_state (advance (write_reg st r (Expr.const base))) ]
            | _ -> raise (Reject "dynamic allocation size not concretizable"))
        | [] -> raise (Reject "allocation without a planned base")
        | (base, size) :: plan ->
            (* Replay the recorded allocation: the bump allocator must hand
               out exactly the planned base, and the dynamic size must
               match the recorded one. *)
            let heap, got = Res_mem.Heap.alloc st.heap ~size ~site:None in
            if got <> base then
              raise (Reject (Fmt.str "alloc returned 0x%x, plan says 0x%x" got base));
            let st =
              {
                st with
                heap;
                plan;
                allocs_rev = (base, size_e) :: st.allocs_rev;
                path = Expr.eq size_e (Expr.const size) :: st.path;
              }
            in
            [ P_state (advance (write_reg st r (Expr.const base))) ])
    | Free a -> (
        let v, st = read_reg st a in
        let candidates =
          concretize_addr cfg rq st (Simplify.norm v)
          |> List.filter_map (fun (base, st) ->
                 match
                   Res_mem.Heap.free st.heap base ~site:(Symframe.pc (top st))
                 with
                 | Res_mem.Heap.Freed_ok (heap, _) ->
                     Some
                       (P_state
                          (with_top
                             { st with heap; frees_rev = base :: st.frees_rev }
                             (Symframe.advance (top st))))
                 | Res_mem.Heap.Double_free _ | Res_mem.Heap.Invalid_free -> None)
        in
        match candidates with
        | [] -> raise (Reject "free of non-live block on non-crashing path")
        | _ -> candidates)
    | Input (r, kind) ->
        let s = Expr.fresh_sym ("input:" ^ input_kind_name kind) in
        let st = { st with inputs_rev = (kind, s) :: st.inputs_rev } in
        [ P_state (advance (write_reg st r (Expr.Sym s))) ]
    | Lock a ->
        let v, st = read_reg st a in
        concretize_addr cfg rq st (Simplify.norm v)
        |> List.map (fun (addr, st) ->
               let cell, st = read_mem rq st addr in
               let st =
                 { st with path = Expr.eq cell Expr.zero :: st.path;
                   locks_rev = (true, addr) :: st.locks_rev }
               in
               P_state (advance (write_mem st addr (Expr.const (rq.tid + 1)))))
    | Unlock a ->
        let v, st = read_reg st a in
        concretize_addr cfg rq st (Simplify.norm v)
        |> List.map (fun (addr, st) ->
               let cell, st = read_mem rq st addr in
               let st =
                 {
                   st with
                   path = Expr.eq cell (Expr.const (rq.tid + 1)) :: st.path;
                   locks_rev = (false, addr) :: st.locks_rev;
                 }
               in
               P_state (advance (write_mem st addr Expr.zero)))
    | Spawn (r, fname, args) -> (
        match st.sp_plan with
        | [] -> raise (Reject "spawn without a planned tid")
        | tid :: sp_plan ->
            let arg_vals, st =
              List.fold_left
                (fun (acc, st) a ->
                  let v, st = read_reg st a in
                  (v :: acc, st))
                ([], st) args
            in
            let st =
              { st with sp_plan; spawns_rev = (tid, fname, List.rev arg_vals) :: st.spawns_rev }
            in
            [ P_state (advance (write_reg st r (Expr.const tid))) ])
    | Join a -> (
        (* join implies the target halted before this point; the backward
           search checks that against the snapshot's thread statuses *)
        let v, st = read_reg st a in
        match Expr.const_val (Simplify.norm v) with
        | Some tid -> [ P_state (advance { st with joins_rev = tid :: st.joins_rev }) ]
        | None -> raise (Reject "join target is not concrete"))
    | Call (ret_reg, fname, args) ->
        if not cfg.inline_calls then
          raise (Reject "mid-block call (forward re-execution disabled)");
        let f = Res_ir.Prog.func rq.prog fname in
        let arg_vals, st =
          List.fold_left
            (fun (acc, st) a ->
              let v, st = read_reg st a in
              (v :: acc, st))
            ([], st) args
        in
        let callee = Symframe.enter f ~args:(List.rev arg_vals) ~ret_reg in
        let st = with_top st (Symframe.advance (top st)) in
        [ P_state { st with frames = callee :: st.frames } ]
    | Assert (r, _) ->
        (* a surviving assert is a path constraint *)
        let v, st = read_reg st r in
        [ P_state (advance { st with path = Expr.ne v Expr.zero :: st.path }) ]
    | Log (tag, r) ->
        let v, st = read_reg st r in
        [ P_state (advance { st with logs_rev = (tag, v) :: st.logs_rev }) ]
    | Nop -> [ P_state (advance st) ]
  and step_term st _fr term =
    let open Res_ir.Instr in
    let at_bottom = is_bottom st in
    let goto st label = with_top st (Symframe.goto (top st) label) in
    let end_bottom st label =
      match rq.mode with
      | Full { require_target = Some t } ->
          if String.equal t label then
            [ P_done (finish (goto st label) (Fell_to label)) ]
          else begin
            (* wrong successor: feasible only if the branch could not go
               there, i.e. this fork dies *)
            raise (Reject (Fmt.str "branch goes to %s, needed %s" label t))
          end
      | Full { require_target = None } ->
          [ P_done (finish (goto st label) (Fell_to label)) ]
      | Partial _ -> raise (Reject "partial execution reached the terminator")
    in
    match term with
    | Jmp l -> if at_bottom then end_bottom st l else [ P_state (goto st l) ]
    | Br (r, l1, l2) -> (
        let v, st = read_reg st r in
        let v = Simplify.norm v in
        match Expr.const_val v with
        | Some c ->
            let l = if c <> 0 then l1 else l2 in
            if at_bottom then end_bottom st l else [ P_state (goto st l) ]
        | None ->
            let taken = { st with path = Expr.ne v Expr.zero :: st.path } in
            let fallth = { st with path = Expr.eq v Expr.zero :: st.path } in
            let feasible st' =
              Solver.solve ~config:cfg.solver (st'.path @ rq.ambient)
              <> Solver.Unsat
            in
            let branches =
              (if feasible taken then [ (taken, l1) ] else [])
              @ if feasible fallth then [ (fallth, l2) ] else []
            in
            if branches = [] then raise (Reject "both branch directions unsat");
            let results =
              List.concat_map
                (fun (st', l) ->
                  if at_bottom then
                    match end_bottom st' l with
                    | outs -> outs
                    | exception Reject _ -> []
                  else [ P_state (goto st' l) ])
                branches
            in
            if results = [] then
              raise (Reject "no feasible branch reaches the required successor");
            results)
    | Ret r_opt -> (
        let ret_val, st =
          match r_opt with
          | Some r ->
              let v, st = read_reg st r in
              (Some v, st)
          | None -> (None, st)
        in
        if at_bottom then
          match rq.mode with
          | Full { require_target = None } ->
              [ P_done (finish st (Returned ret_val)) ]
          | Full { require_target = Some _ } ->
              raise (Reject "block returns, successor required")
          | Partial _ -> raise (Reject "partial execution reached ret")
        else
          let callee = top st in
          let st = { st with frames = List.tl st.frames } in
          let st =
            match (callee.Symframe.ret_reg, ret_val) with
            | Some dst, Some v -> write_reg st dst v
            | Some dst, None -> write_reg st dst Expr.zero
            | None, _ -> st
          in
          [ P_state st ])
    | Halt ->
        if at_bottom then
          match rq.mode with
          | Full { require_target = None } -> [ P_done (finish st Halted) ]
          | _ -> raise (Reject "block halts, successor required")
        else raise (Reject "halt inside an inlined call")
    | Abort _ -> raise (Reject "abort on a non-crashing path")
  in
  drive [ init_st rq ];
  (!outcomes, List.rev !rejects)

(** Run a request to completion.  Returns the feasible outcomes (possibly
    none) and human-readable reasons for rejected forks. *)
let run ?(config = default_config) rq = exec config rq
