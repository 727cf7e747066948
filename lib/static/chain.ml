(** Goal-directed admissible pruning for the backward search.

    Given a candidate backward step — "thread [tid] ran [block] to
    completion and then executed the already-synthesized chain of its own
    segments, ending at the coredump" — this module decides, by a purely
    static constant-domain interpretation, whether the solver is
    {e guaranteed} to reject the candidate.  The search then skips the
    symbolic execution and the solve entirely.

    Soundness is the whole game: a prune must never drop a feasible
    predecessor, because the search's output (and the paper's
    reproduction guarantee) depends on enumerating every suffix the
    solver would accept.  Every refutation rule below is therefore an
    exact static mirror of a constraint subset {!Res_core.Backstep}
    provably emits and the solver provably finds unsatisfiable:

    - {b Seeds.}  Registers the candidate block does not define are
      seeded from the post-state frame verbatim (Backstep.seed_frame), so
      a register whose post-state value is a concrete constant {e is}
      that constant at candidate entry; a register absent from the frame
      reads as 0.  Registers the block defines start unknown ([Top] —
      they are havocked pre-state symbols).
    - {b Constant propagation.}  Within the chain, each segment's output
      registers are tied to the next segment's input frame by equality
      constraints (Backstep.reg_constraints), and untouched registers are
      carried by construction — so a constant derived anywhere in the
      chain is forced everywhere downstream.  Relaxed registers (the
      CPU-miscompute hypothesis breaks exactly those equalities) are
      re-unknowned at every segment boundary where they were assigned.
    - {b Terminators.}  A completed segment must branch to the recorded
      successor ([Symexec] rejects the wrong arm; with a concrete
      condition the wrong arm is the only arm).  A [br] into the
      zero-arm with unknown condition {e forces} the condition register
      to 0 (the path constraint [cond = 0] is recorded), which we learn.
    - {b Traps.}  [assert r] with [r] forced 0, or a division whose
      divisor is forced 0, contradicts the survive-constraints
      ([ne v 0]) the executor records for every instruction the segment
      completed.
    - {b Memory.}  The candidate segment's final stores at concrete
      addresses with concrete values must equal the post-snapshot's
      concrete memory (Backstep.mem_constraints).  Calls clobber
      whatever their transitive mod summary covers; allocs/frees and
      stores through unknown addresses clobber everything (we keep no
      fact a real execution could invalidate).
    - {b Goal.}  If the thread's chain ends at its coredump stop frame,
      every register the chain assigned a constant to is forced to equal
      the coredump frame's concrete value for that register
      (transitively, via the same equality links).

    Anything the interpretation cannot prove is [Top], and [Top] never
    refutes.  Minidump ablation degrades gracefully: havocked frames seed
    nothing and impose no goals, so pruning simply stops firing. *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type value = Top | Known of int

(** How one synthesized segment of the chain ended. *)
type seg_end =
  | End_branch of string  (** block ran to completion and fell to label *)
  | End_ret  (** block ran to completion and returned (terminal segment) *)
  | End_halt  (** block ran to completion and halted (terminal segment) *)
  | End_stop of int
      (** partial segment: stopped before instruction [idx] (the
          crash/blocked position recorded by the coredump frame) *)

type seg = { sg_func : string; sg_block : string; sg_end : seg_end }

(** Everything the refuter needs from the search node, as closures so the
    static layer stays independent of the core's types. *)
type query = {
  q_prog : Res_ir.Prog.t;
  q_summary : Summary.t;
  q_tid : int;  (** thread of the chain: lock/unlock write [tid+1]/0 *)
  q_seed : int -> value;
      (** register value at candidate entry, from the post-state frame *)
  q_post_mem : int -> int option;
      (** concrete cells of the post-state snapshot; [None] for symbolic,
          unmapped, or relaxed addresses *)
  q_goal : (int -> value) option;
      (** the coredump stop frame's register values; [None] when the
          thread records no stop frame (halted) or goals don't apply *)
  q_relaxed_regs : ISet.t;  (** registers with relaxed constraints (this tid) *)
  q_resolve_global : string -> int option;  (** global name to base address *)
  q_is_heap_addr : int -> bool;
}

exception Refuted of string

(** Remove from [facts] every address a call to [callee] may write. *)
let clobber_call q facts callee =
  let s = Summary.transitive q.q_summary callee in
  if s.Summary.s_mod.Summary.f_unknown then IMap.empty
  else
    let facts =
      if s.Summary.s_heap then
        IMap.filter (fun a _ -> not (q.q_is_heap_addr a)) facts
      else facts
    in
    Summary.CSet.fold
      (fun (g, off) facts ->
        match q.q_resolve_global g with
        | None -> IMap.empty (* unknown global: clobber everything *)
        | Some base -> IMap.remove (base + off) facts)
      s.Summary.s_mod.Summary.f_cells facts

(** The interpreter's registers, as arrays indexed by register and sized
    by the program's {!Summary.t} [regs]. *)
type state = {
  vals : value array;  (** register values where [present] *)
  present : Bytes.t;  (** ['\001'] where set; elsewhere it falls to the seed *)
  assigned : Bytes.t;  (** ['\001'] where the chain has determined it *)
  stamp : int array;  (** the number of the segment that last assigned it *)
  mutable seg : int;  (** the number of the segment being interpreted *)
  mutable facts : int IMap.t;  (** candidate-segment final stores, addr -> value *)
}

let set st r v =
  st.vals.(r) <- v;
  Bytes.set st.present r '\001'

let read q st r =
  if Bytes.get st.present r = '\001' then st.vals.(r) else q.q_seed r

let assign st r v =
  set st r v;
  Bytes.set st.assigned r '\001';
  st.stamp.(r) <- st.seg

(** Interpret one instruction.  [track] is true only for the candidate
    segment, whose final stores face the post-snapshot's memory. *)
let interp_instr q st ~track (i : Res_ir.Instr.instr) =
  let open Res_ir.Instr in
  let store_fact addr v =
    if track then
      match (addr, v) with
      | Known a, Known n -> st.facts <- IMap.add a n st.facts
      | Known a, Top -> st.facts <- IMap.remove a st.facts
      | Top, _ -> st.facts <- IMap.empty
  in
  match i with
  | Const (r, n) -> assign st r (Known n)
  | Mov (r, a) -> assign st r (read q st a)
  | Global_addr (r, g) -> (
      match q.q_resolve_global g with
      | Some base -> assign st r (Known base)
      | None -> assign st r Top)
  | Unop (op, r, a) -> (
      match read q st a with
      | Known x -> assign st r (Known (eval_unop op x))
      | Top -> assign st r Top)
  | Binop (op, r, a, b) -> (
      let vb = read q st b in
      (match (op, vb) with
      | (Div | Rem), Known 0 ->
          (* the executor records the survive-constraint [divisor ≠ 0]
             for a division the segment completed; divisor forced 0 makes
             the store unsatisfiable *)
          raise (Refuted "division by a divisor forced to zero")
      | _ -> ());
      match (read q st a, vb) with
      | Known x, Known y -> (
          try assign st r (Known (eval_binop op x y))
          with Division_by_zero -> assign st r Top)
      | _ -> assign st r Top)
  | Load (r, _, _) -> assign st r Top
  | Store (a, off, s) ->
      let addr =
        match read q st a with
        | Known base -> Known (base + off)
        | Top -> Top
      in
      store_fact addr (read q st s)
  | Lock a ->
      (* the executor writes the owner's tid+1 into the mutex cell *)
      store_fact (read q st a) (Known (q.q_tid + 1))
  | Unlock a -> store_fact (read q st a) (Known 0)
  | Alloc (r, _) ->
      assign st r Top;
      (* allocation initializes heap cells; drop every memory fact rather
         than model which *)
      if track then st.facts <- IMap.empty
  | Free _ -> if track then st.facts <- IMap.empty
  | Input (r, _) -> assign st r Top
  | Spawn (r, _, _) -> assign st r Top
  | Join _ -> ()
  | Call (dst, callee, _) ->
      (match dst with Some r -> assign st r Top | None -> ());
      if track then st.facts <- clobber_call q st.facts callee
  | Assert (r, _) -> (
      match read q st r with
      | Known 0 ->
          raise (Refuted "assert on a value forced to zero must fail")
      | _ -> ())
  | Log _ | Nop -> ()

(** Interpret one segment of the chain. *)
let interp_seg q st ~track (s : seg) =
  match Res_ir.Prog.func_opt q.q_prog s.sg_func with
  | None -> raise Exit (* malformed chain: never refute *)
  | Some f -> (
      match Res_ir.Func.block_opt f s.sg_block with
      | None -> raise Exit
      | Some b ->
          st.seg <- st.seg + 1;
          let n = Res_ir.Block.length b in
          let limit =
            match s.sg_end with End_stop idx -> min idx n | _ -> n
          in
          for i = 0 to limit - 1 do
            interp_instr q st ~track b.Res_ir.Block.instrs.(i)
          done;
          (match s.sg_end with
          | End_stop _ -> ()
          | End_branch l -> (
              match b.Res_ir.Block.term with
              | Res_ir.Instr.Jmp l' ->
                  if not (String.equal l' l) then
                    raise (Refuted "jmp cannot reach the recorded successor")
              | Res_ir.Instr.Br (r, l1, l2) -> (
                  match read q st r with
                  | Known n ->
                      let taken = if n <> 0 then l1 else l2 in
                      if not (String.equal taken l) then
                        raise
                          (Refuted
                             "branch condition forced to take the other arm")
                  | Top ->
                      (* Taking the zero-arm records the path constraint
                         [cond = 0]: learn it. *)
                      if String.equal l l2 && not (String.equal l1 l2) then
                        assign st r (Known 0))
              | Res_ir.Instr.Ret _ | Res_ir.Instr.Halt | Res_ir.Instr.Abort _
                ->
                  raise (Refuted "block cannot fall through to a successor"))
          | End_ret -> (
              match b.Res_ir.Block.term with
              | Res_ir.Instr.Ret _ -> ()
              | _ -> raise (Refuted "terminal segment requires a ret block"))
          | End_halt -> (
              match b.Res_ir.Block.term with
              | Res_ir.Instr.Halt -> ()
              | _ -> raise (Refuted "terminal segment requires a halt block")));
          (* Relaxed registers: the equality link into the next segment is
             exempted for exactly these, so anything this segment derived
             about them must be forgotten. *)
          ISet.iter
            (fun r ->
              if r >= 0 && r < Array.length st.stamp && st.stamp.(r) = st.seg
              then set st r Top)
            q.q_relaxed_regs)

(** [refute q chain] — [Some reason] when the candidate chain (candidate
    segment first, then the thread's already-synthesized segments in
    execution order) is statically guaranteed infeasible; [None] when it
    might be feasible.  Never raises. *)
let refute (q : query) (chain : seg list) : string option =
  match chain with
  | [] -> None
  | cand :: rest -> (
      try
        (match Res_ir.Prog.func_opt q.q_prog cand.sg_func with
        | None -> raise Exit
        | Some f -> (
            match Res_ir.Func.block_opt f cand.sg_block with
            | None -> raise Exit
            | Some b ->
                let n =
                  match q.q_summary.Summary.regs with
                  | Some n -> n
                  | None -> raise Exit
                in
                let st =
                  {
                    vals = Array.make n Top;
                    present = Bytes.make n '\000';
                    assigned = Bytes.make n '\000';
                    stamp = Array.make n 0;
                    seg = 0;
                    facts = IMap.empty;
                  }
                in
                (* registers the candidate defines are havocked pre-state
                   symbols, not seeds *)
                List.iter
                  (fun r -> set st r Top)
                  (Res_ir.Block.defined_regs b);
                interp_seg q st ~track:true cand;
                (* candidate's final stores vs the post-state snapshot *)
                IMap.iter
                  (fun addr v ->
                    match q.q_post_mem addr with
                    | Some m when m <> v ->
                        raise
                          (Refuted
                             (Fmt.str
                                "store leaves %d at address %d but the \
                                 snapshot holds %d"
                                v addr m))
                    | _ -> ())
                  st.facts;
                List.iter (interp_seg q st ~track:false) rest;
                (* goal: the coredump stop frame pins chain-assigned
                   constants *)
                let ends_at_stop =
                  match List.rev chain with
                  | { sg_end = End_stop _; _ } :: _ -> true
                  | _ -> false
                in
                (match q.q_goal with
                | Some goal when ends_at_stop ->
                    for r = 0 to n - 1 do
                      match st.vals.(r) with
                      | Known v
                        when Bytes.get st.assigned r = '\001'
                             && not (ISet.mem r q.q_relaxed_regs) -> (
                          match goal r with
                          | Known d when d <> v ->
                              raise
                                (Refuted
                                   (Fmt.str
                                      "chain forces r%d = %d but the \
                                       coredump frame holds %d"
                                      r v d))
                          | _ -> ())
                      | _ -> ()
                    done
                | _ -> ())));
        None
      with
      | Refuted reason -> Some reason
      | Exit -> None)
