(** The MiniVM interpreter.

    Executes MiniIR programs with multiple threads under a pluggable
    scheduler, input oracle, and fault plan.  Context switches happen only
    at basic-block boundaries or when the running thread blocks
    (DESIGN.md §1), which makes a schedule a plain list of tids and lets
    RES reconstruct it exactly. *)

module IMap = Map.Make (Int)

type config = {
  sched : Sched.t;
  oracle : Oracle.t;
  fault : Fault.t;
  max_steps : int;
  lbr_depth : int;  (** 0 disables the breadcrumb LBR *)
  record_trace : bool;
      (** production runs leave this off; replay and ground-truth runs on *)
}

let default_config () =
  {
    sched = Sched.create Sched.Round_robin;
    oracle = Oracle.seeded ~seed:0;
    fault = Fault.none;
    max_steps = 1_000_000;
    lbr_depth = 16;
    record_trace = false;
  }

type state = {
  prog : Res_ir.Prog.t;
  layout : Res_mem.Layout.t;
  mutable mem : Res_mem.Memory.t;
  mutable heap : Res_mem.Heap.t;
  mutable threads : Thread.t IMap.t;
  mutable next_tid : int;
  mutable tracer : Tracer.t;
  mutable steps : int;
  mutable trace_rev : Event.t list;
  mutable current : int;  (** tid currently holding the virtual CPU *)
  mutable sched_trace_rev : int list;  (** tids picked at scheduling points *)
  mutable block_func : string;
  mutable block_label : Res_ir.Instr.label;
  mutable block : Res_ir.Block.t;
      (** the block last stepped in, resolved from the [block_func] and
          [block_label] strings, which {!current_block} compares
          physically: a frame keeps the strings it was entered or jumped
          with, so a thread running one block hits on every step *)
}

type outcome =
  | Crashed of Crash.t
  | Exited  (** every thread halted *)
  | Out_of_fuel  (** [max_steps] exhausted *)

(** What one {!advance} did. *)
type progress = Ran  (** one instruction completed *) | Stopped of outcome

type result = {
  outcome : outcome;
  final : state;
  trace : Event.t list;  (** instruction-level, if [record_trace] *)
  schedule : int list;  (** tids picked at scheduling points, in order *)
}

exception Crash_exn of Crash.kind

let init prog =
  let layout = Res_mem.Layout.of_prog prog in
  let main = Res_ir.Prog.main prog in
  let t0 = Thread.start ~tid:0 main ~args:[] in
  let fr = Thread.top t0 in
  {
    prog;
    layout;
    mem = Res_mem.Memory.empty;
    heap = Res_mem.Heap.empty;
    threads = IMap.singleton 0 t0;
    next_tid = 1;
    tracer = Tracer.create ~lbr_depth:16;
    steps = 0;
    trace_rev = [];
    current = 0;
    sched_trace_rev = [];
    block_func = fr.func;
    block_label = fr.block;
    block = Res_ir.Func.block main fr.block;
  }

let set_thread st (th : Thread.t) = st.threads <- IMap.add th.tid th st.threads

let get_thread st tid =
  match IMap.find_opt tid st.threads with
  | Some th -> th
  | None -> invalid_arg (Fmt.str "Exec: unknown thread %d" tid)

(** Record [action] of the instruction at [fr]'s position; the pc is built
    only when the trace is on. *)
let emit st cfg tid fr action =
  if cfg.record_trace then
    st.trace_rev <-
      { Event.step = st.steps; tid; pc = Frame.pc fr; action } :: st.trace_rev

(** The block [fr] is in: the cached one when [fr] names it by the same
    strings, else looked up (and cached). *)
let current_block st (fr : Frame.t) =
  if fr.func == st.block_func && fr.block == st.block_label then st.block
  else
    let b = Res_ir.Prog.block st.prog ~func:fr.func ~label:fr.block in
    st.block_func <- fr.func;
    st.block_label <- fr.block;
    st.block <- b;
    b

(** Validate a data access; returns unit or raises the crash. *)
let check_data_access st addr =
  let open Res_mem in
  if Layout.in_heap_region addr then
    match Heap.check_access st.heap addr with
    | Heap.Ok_access _ -> ()
    | Heap.Out_of_bounds (b, _) ->
        raise (Crash_exn (Crash.Out_of_bounds { addr; base = b.base; size = b.size }))
    | Heap.Use_after_free b ->
        raise (Crash_exn (Crash.Use_after_free { addr; base = b.base }))
    | Heap.Unmapped -> raise (Crash_exn (Crash.Seg_fault addr))
  else
    match Layout.find_global st.layout addr with
    | Some _ -> ()
    | None ->
        if Layout.in_globals_region st.layout addr then
          (* Guard word: identify the global it overflows. *)
          let global =
            List.find_map
              (fun (base, size, name) ->
                if addr = base + size then Some name else None)
              st.layout.names
            |> Option.value ~default:"?"
          in
          raise (Crash_exn (Crash.Global_overflow { addr; global }))
        else raise (Crash_exn (Crash.Seg_fault addr))

let read_mem st addr =
  check_data_access st addr;
  Res_mem.Memory.read st.mem addr

let write_mem st addr v =
  check_data_access st addr;
  st.mem <- Res_mem.Memory.write st.mem addr v

(** Wake every thread blocked on [pred]. *)
let wake st pred =
  st.threads <-
    IMap.map
      (fun (th : Thread.t) ->
        if pred th.status then { th with status = Thread.Runnable } else th)
      st.threads

let eval_binop_faulted st cfg op a b =
  let v = Res_ir.Instr.eval_binop op a b in
  v + Fault.alu_delta_at cfg.fault ~step:st.steps

(** Execute one straight-line instruction of thread [th]; returns the
    updated thread (not yet stored).  May raise [Crash_exn]. *)
let step_instr st cfg (th : Thread.t) (fr : Frame.t) instr =
  let open Res_ir.Instr in
  let tid = th.tid in
  let rd r = Frame.read_reg fr r in
  let advance fr = Thread.with_top th (Frame.advance fr) in
  match instr with
  | Const (r, n) ->
      emit st cfg tid fr Event.A_exec;
      advance (Frame.write_reg fr r n)
  | Mov (r, a) ->
      emit st cfg tid fr Event.A_exec;
      advance (Frame.write_reg fr r (rd a))
  | Binop (op, r, a, b) ->
      let va = rd a and vb = rd b in
      if (op = Div || op = Rem) && vb = 0 then raise (Crash_exn Crash.Div_by_zero);
      emit st cfg tid fr Event.A_exec;
      advance (Frame.write_reg fr r (eval_binop_faulted st cfg op va vb))
  | Unop (op, r, a) ->
      emit st cfg tid fr Event.A_exec;
      advance (Frame.write_reg fr r (eval_unop op (rd a)))
  | Load (r, a, off) ->
      let addr = rd a + off in
      let v = read_mem st addr in
      emit st cfg tid fr (Event.A_read { addr; value = v });
      advance (Frame.write_reg fr r v)
  | Store (a, off, s) ->
      let addr = rd a + off in
      let old = read_mem st addr in
      let v = rd s in
      write_mem st addr v;
      emit st cfg tid fr (Event.A_write { addr; value = v; old });
      advance fr
  | Global_addr (r, g) -> (
      match Res_mem.Layout.global_base st.layout g with
      | base ->
          emit st cfg tid fr Event.A_exec;
          advance (Frame.write_reg fr r base)
      | exception Not_found -> raise (Crash_exn (Crash.Seg_fault 0)))
  | Alloc (r, s) ->
      let size = rd s in
      if size <= 0 then raise (Crash_exn (Crash.Alloc_error size));
      let heap, base =
        Res_mem.Heap.alloc st.heap ~size ~site:(Some (Frame.pc fr))
      in
      st.heap <- heap;
      emit st cfg tid fr (Event.A_alloc { base; size });
      advance (Frame.write_reg fr r base)
  | Free a -> (
      let addr = rd a in
      match Res_mem.Heap.free st.heap addr ~site:(Frame.pc fr) with
      | Res_mem.Heap.Freed_ok (heap, b) ->
          st.heap <- heap;
          emit st cfg tid fr (Event.A_free { base = b.base });
          advance fr
      | Res_mem.Heap.Double_free b ->
          raise (Crash_exn (Crash.Double_free b.base))
      | Res_mem.Heap.Invalid_free -> raise (Crash_exn (Crash.Invalid_free addr)))
  | Input (r, kind) ->
      let v = cfg.oracle.Oracle.next kind in
      emit st cfg tid fr (Event.A_input { kind; value = v });
      advance (Frame.write_reg fr r v)
  | Lock a ->
      let addr = rd a in
      let v = read_mem st addr in
      if v = 0 then (
        write_mem st addr (tid + 1);
        emit st cfg tid fr (Event.A_lock { addr });
        advance fr)
      else (* Do not advance: the instruction retries once woken. *)
        { th with status = Thread.Blocked_on_lock addr }
  | Unlock a ->
      let addr = rd a in
      let v = read_mem st addr in
      if v <> tid + 1 then raise (Crash_exn (Crash.Unlock_error addr))
      else (
        write_mem st addr 0;
        wake st (function Thread.Blocked_on_lock a' -> a' = addr | _ -> false);
        emit st cfg tid fr (Event.A_unlock { addr });
        advance fr)
  | Spawn (r, fname, args) ->
      let f = Res_ir.Prog.func st.prog fname in
      let tid' = st.next_tid in
      st.next_tid <- tid' + 1;
      let th' = Thread.start ~tid:tid' f ~args:(List.map rd args) in
      set_thread st th';
      emit st cfg tid fr (Event.A_spawn { new_tid = tid' });
      advance (Frame.write_reg fr r tid')
  | Join a ->
      let target = rd a in
      if not (IMap.mem target st.threads) then
        raise (Crash_exn (Crash.Abort_called (Fmt.str "join of invalid thread %d" target)))
      else if Thread.is_halted (get_thread st target) then (
        emit st cfg tid fr (Event.A_join { joined = target });
        advance fr)
      else { th with status = Thread.Blocked_on_join target }
  | Call (ret_reg, fname, args) ->
      let f = Res_ir.Prog.func st.prog fname in
      emit st cfg tid fr (Event.A_call { callee = fname });
      let caller = Frame.advance fr in
      let callee = Frame.enter f ~args:(List.map rd args) ~ret_reg in
      Thread.push_frame (Thread.with_top th caller) callee
  | Assert (r, msg) ->
      if rd r = 0 then raise (Crash_exn (Crash.Assert_fail msg))
      else (
        emit st cfg tid fr Event.A_exec;
        advance fr)
  | Log (tag, r) ->
      st.tracer <- Tracer.record_log st.tracer ~tid ~tag ~value:(rd r);
      emit st cfg tid fr Event.A_exec;
      advance fr
  | Nop ->
      emit st cfg tid fr Event.A_exec;
      advance fr

(** Execute the terminator of the current block. *)
let step_term st cfg (th : Thread.t) (fr : Frame.t) term =
  let open Res_ir.Instr in
  let tid = th.tid in
  let branch_to label =
    st.tracer <-
      Tracer.record_branch st.tracer ~tid ~func:fr.func ~from_label:fr.block
        ~to_label:label;
    emit st cfg tid fr (Event.A_branch { from_label = fr.block; to_label = label });
    Thread.with_top th (Frame.goto fr label)
  in
  let halt_thread () =
    emit st cfg tid fr Event.A_halt;
    wake st (function Thread.Blocked_on_join t -> t = tid | _ -> false);
    { th with Thread.frames = []; status = Thread.Halted }
  in
  match term with
  | Jmp l -> branch_to l
  | Br (r, l1, l2) -> branch_to (if Frame.read_reg fr r <> 0 then l1 else l2)
  | Halt -> halt_thread ()
  | Abort msg -> raise (Crash_exn (Crash.Abort_called msg))
  | Ret r_opt -> (
      emit st cfg tid fr Event.A_ret;
      let ret_val = Option.map (Frame.read_reg fr) r_opt in
      let th = Thread.pop_frame th in
      match th.Thread.frames with
      | [] -> halt_thread ()
      | caller :: _ -> (
          match (fr.ret_reg, ret_val) with
          | Some dst, Some v ->
              Thread.with_top th (Frame.write_reg caller dst v)
          | Some dst, None ->
              (* [r = call f()] where f returns nothing: yield 0. *)
              Thread.with_top th (Frame.write_reg caller dst 0)
          | None, _ -> th))

(** One machine step of thread [tid]: [Ran], or the crash it stopped at. *)
let step st cfg tid =
  st.mem <- Fault.memory_mutations_at cfg.fault ~step:st.steps st.mem;
  let th = get_thread st tid in
  let fr = Thread.top th in
  let block = current_block st fr in
  let result =
    try
      let th' =
        if fr.idx < Res_ir.Block.length block then
          step_instr st cfg th fr (Res_ir.Block.instr block fr.idx)
        else step_term st cfg th fr block.term
      in
      set_thread st th';
      Ran
    with Crash_exn kind -> Stopped (Crashed { Crash.kind; tid; pc = Frame.pc fr })
  in
  st.steps <- st.steps + 1;
  result

let runnable_tids st =
  IMap.fold
    (fun tid th acc -> if Thread.is_runnable th then tid :: acc else acc)
    st.threads []
  |> List.sort compare

let blocked_tids st =
  IMap.fold
    (fun tid th acc -> if Thread.is_blocked th then tid :: acc else acc)
    st.threads []
  |> List.sort compare

(** Whether thread [current] of [threads] must keep the CPU (it is
    runnable and mid-block, so no context switch is allowed). *)
let holds_cpu threads current =
  match IMap.find_opt current threads with
  | Some th -> Thread.is_runnable th && not (Thread.at_block_boundary th)
  | None -> false

(** [holds_cpu st.threads st.current], written out: every step asks it. *)
let must_continue st =
  match IMap.find_opt st.current st.threads with
  | Some th -> Thread.is_runnable th && not (Thread.at_block_boundary th)
  | None -> false

(** Build an initial state with explicit memory, heap, and threads — used
    by the replayer to start a program {e mid-execution} from a synthesized
    memory image [Mi]. *)
let make_state prog ~mem ~heap ~threads =
  let st = init prog in
  st.mem <- mem;
  st.heap <- heap;
  st.threads <- threads;
  st.next_tid <- 1 + IMap.fold (fun tid _ acc -> max tid acc) threads 0;
  st

(** The one scheduling step every run is a loop over: out of fuel at
    [max_steps]; else the current thread keeps the CPU while it is
    mid-block; else [cfg.sched] picks among the runnable threads (the pick
    is logged); with none runnable the run has exited, or deadlocked if a
    live thread is blocked.  Then the chosen thread executes one
    instruction, which may crash. *)
let advance st cfg =
  if st.steps >= cfg.max_steps then Stopped Out_of_fuel
  else if must_continue st then step st cfg st.current
  else
    match runnable_tids st with
    | [] -> (
        match blocked_tids st with
        | [] -> Stopped Exited
        | blocked ->
            (* Every live thread is blocked: deadlock.  Attribute the
               crash to the lowest blocked tid at its current pc. *)
            let tid = List.hd blocked in
            let pc = Thread.pc (get_thread st tid) in
            Stopped (Crashed { Crash.kind = Crash.Deadlock blocked; tid; pc }))
    | runnable ->
        let tid = Sched.pick cfg.sched ~runnable in
        st.sched_trace_rev <- tid :: st.sched_trace_rev;
        st.current <- tid;
        step st cfg tid

(** Run an already-constructed state under [config] until crash, exit, or
    fuel exhaustion. *)
let run_state ?(config = default_config ()) st =
  st.tracer <- Tracer.create ~lbr_depth:config.lbr_depth;
  let rec loop () =
    match advance st config with
    | Ran -> loop ()
    | Stopped outcome ->
        {
          outcome;
          final = st;
          trace = List.rev st.trace_rev;
          schedule = List.rev st.sched_trace_rev;
        }
  in
  loop ()

(** Run [prog] from its entry point under [config]. *)
let run ?config prog = run_state ?config (init prog)

(** Run and capture a coredump if the program crashes. *)
let run_to_coredump ?config prog =
  let r = run ?config prog in
  match r.outcome with
  | Crashed crash ->
      ( Some
          {
            Coredump.crash;
            mem = r.final.mem;
            heap = r.final.heap;
            threads = r.final.threads;
            tracer = r.final.tracer;
            steps = r.final.steps;
          },
        r )
  | Exited | Out_of_fuel -> (None, r)
