(** Post-mortem debugging aids on top of a synthesized suffix (paper §3.3).

    "RES enables several debugging aids on top of traditional debuggers
    like gdb: synthesizing the execution suffix, reconstructing past state,
    and the ability to do reverse debugging without the need to record the
    execution."

    A session wraps one verified suffix.  Because replay is deterministic,
    any point in the suffix can be reconstructed exactly by re-running the
    replay for a bounded number of steps — reverse-stepping is just
    re-running one step less.  The hypothesis helpers answer the paper's
    example queries: "what was the program state when the program was
    executing at program counter X?" and "was a thread T preempted before
    updating shared memory location M?".

    Every position this module takes or returns is a timeline position:
    [p] means "the first [p] instructions of the suffix have completed",
    so the instruction a position names is the one about to execute. *)

module IMap = Map.Make (Int)

(** One cached pass over the event trace, shared by every query that used
    to rescan it per call.  Trace indices are not positions: a blocked
    scheduling attempt completes a step but emits no event, and a ret from
    the last frame emits two events (ret + halt) for one step.  Events
    carry their true step, which is the position they are grouped by. *)
type scan = {
  sc_by_step : Res_vm.Event.t list array;
      (** events grouped by the step that emitted them, oldest first *)
  sc_writes : int list IMap.t;  (** addr -> positions writing it, oldest first *)
  sc_thread_steps : int list IMap.t;  (** tid -> its positions, oldest first *)
}

type stats = {
  snapshot_restores : int;
  window_restores : int;
  replayed : int;
  probes : int;
}

type t = {
  ctx : Backstep.ctx;
  suffix : Suffix.t;
  dump : Res_vm.Coredump.t;
  trace : Res_vm.Event.t list;  (** instruction-level suffix trace *)
  events : Res_vm.Event.t array Lazy.t;
      (** the trace as an array, copied on the first query that indexes it *)
  index : Replay.Index.t;  (** kept from the verifying replay *)
  mutable scan : scan option;  (** lazily-built shared event scan *)
  mutable probes : int;  (** state evaluations made by transition searches *)
}

(** Open a debugging session for a suffix: the one verifying replay keeps
    the snapshot index state queries use.  Returns [Error] if the suffix
    does not reproduce the coredump (nothing trustworthy to debug).
    [snapshot_every] is the snapshot-index interval (0 disables the index:
    every query replays from step 0; negative values are treated as 0). *)
let start ?(snapshot_every = 64) ctx suffix dump =
  let verdict, index =
    Replay.Index.replay ~interval:(max 0 snapshot_every) ctx suffix dump
  in
  if not verdict.Replay.reproduced then Error "suffix does not reproduce the coredump"
  else
    Ok
      {
        ctx;
        suffix;
        dump;
        trace = verdict.Replay.trace;
        events = lazy (Array.of_list verdict.Replay.trace);
        index;
        scan = None;
        probes = 0;
      }

(** The first of [suffixes], in the caller's order, that opens a session. *)
let rec start_first ?snapshot_every ctx suffixes dump =
  match suffixes with
  | [] -> None
  | suffix :: rest -> (
      match start ?snapshot_every ctx suffix dump with
      | Ok t -> Some (suffix, t)
      | Error _ -> start_first ?snapshot_every ctx rest dump)

(** The suffix's instruction trace, oldest first. *)
let trace t = t.trace

(** The crash the suffix runs into. *)
let crash t = t.dump.Res_vm.Coredump.crash

(** The program's memory layout, for naming addresses. *)
let layout t = t.ctx.Backstep.layout

(** The snapshot-index interval, after clamping (0 = no index). *)
let snapshot_every t = Replay.Index.interval t.index

(** Replay-from-zero state reconstruction, the baseline the snapshot index
    is benchmarked (and tested) against: [Exec.run_state] from step 0,
    keeping no images.  O(steps) per query. *)
let state_at_linear t steps =
  let state = Replay.initial_state t.ctx t.suffix in
  let config =
    {
      (Res_vm.Exec.default_config ()) with
      sched =
        Res_vm.Sched.create (Res_vm.Sched.Fixed (Suffix.schedule t.suffix));
      oracle = Res_vm.Oracle.scripted (Suffix.input_script t.suffix);
      max_steps = steps;
      record_trace = false;
    }
  in
  (Res_vm.Exec.run_state ~config state).Res_vm.Exec.final

(** Total completed instruction steps in the suffix (the crash attempt
    excluded) — positions are [0..total_steps]. *)
let total_steps t = Replay.Index.length t.index

(** Reconstruct the exact machine state after executing the first [steps]
    instructions of the suffix via {!Replay.Index.seek}: a step back into
    the window the last backward seek replayed restores an image, anything
    else restores the nearest snapshot at or below [steps] and
    re-executes forward — never O(execution length). *)
let state_at t steps = Replay.Index.seek t.index steps

(** Replay-work counters of the session so far. *)
let stats t =
  let ix = t.index in
  {
    snapshot_restores = ix.Replay.Index.ix_restores;
    window_restores = ix.Replay.Index.ix_window_restores;
    replayed = ix.Replay.Index.ix_replayed;
    probes = t.probes;
  }

(** Memory word [addr] at position [p]. *)
let mem_at t p addr =
  Res_mem.Memory.read (state_at t p).Res_vm.Exec.mem addr

(* The shared event scan: one pass over the trace, built on first use,
   instead of one pass per query. *)
let scan t =
  match t.scan with
  | Some s -> s
  | None ->
      let push k p m =
        IMap.update k
          (function
            | Some (q :: _ as l) when q = p -> Some l
            | None -> Some [ p ]
            | Some l -> Some (p :: l))
          m
      in
      let events = Lazy.force t.events in
      let n =
        if Array.length events = 0 then 0
        else events.(Array.length events - 1).Res_vm.Event.step + 1
      in
      let by_step = Array.make n [] in
      let writes = ref IMap.empty and threads = ref IMap.empty in
      for i = Array.length events - 1 downto 0 do
        let e = events.(i) in
        let p = e.Res_vm.Event.step in
        by_step.(p) <- e :: by_step.(p);
        threads := push e.Res_vm.Event.tid p !threads;
        match e.Res_vm.Event.action with
        | Res_vm.Event.A_write { addr; _ } -> writes := push addr p !writes
        | _ -> ()
      done;
      let s =
        { sc_by_step = by_step; sc_writes = !writes; sc_thread_steps = !threads }
      in
      t.scan <- Some s;
      s

(** The events the instruction at position [p] emits, oldest first: empty
    for a blocked scheduling attempt and at the crash position. *)
let events_at t p =
  let by_step = (scan t).sc_by_step in
  if p >= 0 && p < Array.length by_step then by_step.(p) else []

(** The program counters position [p] executes, one per event (a final
    ret counts twice, as ret and halt), or the faulting pc at the crash
    position — the one definition of where a breakpoint stops. *)
let pcs_at t p =
  if p = total_steps t then [ (crash t).Res_vm.Crash.pc ]
  else List.map (fun (e : Res_vm.Event.t) -> e.Res_vm.Event.pc) (events_at t p)

(** Every position whose instruction is at [pc], oldest first — the full
    hit list of a breakpoint (what a [continue] with a hit count walks). *)
let break_all t (pc : Res_ir.Pc.t) =
  List.filter
    (fun p -> List.exists (Res_ir.Pc.equal pc) (pcs_at t p))
    (List.init (total_steps t + 1) Fun.id)

(** First position whose instruction is at [pc] — a breakpoint.  Answers
    "what was the program state when the program was executing at X":
    combine with {!state_at}. *)
let break_at t pc = match break_all t pc with p :: _ -> Some p | [] -> None

(** All positions at which thread [tid] executes an instruction. *)
let steps_of_thread t tid =
  match IMap.find_opt tid (scan t).sc_thread_steps with
  | Some steps -> steps
  | None -> []

(** Positions whose instruction writes memory word [addr], oldest first —
    the write history of a location within the suffix. *)
let writes_to t addr =
  match IMap.find_opt addr (scan t).sc_writes with
  | Some steps -> steps
  | None -> []

(** Hypothesis (paper §3.3): "was thread T preempted before updating shared
    memory location M?" — true when another thread executed between T's
    previous access to M (typically the read of a read-modify-write) and
    T's write to M.  [None] when T never writes M in this suffix. *)
let preempted_before_update t ~tid ~addr =
  let events = Lazy.force t.events in
  let n = Array.length events in
  (* find T's first write to addr *)
  let rec find_write i =
    if i >= n then None
    else
      let e = events.(i) in
      match e.Res_vm.Event.action with
      | Res_vm.Event.A_write { addr = a; _ }
        when a = addr && e.Res_vm.Event.tid = tid ->
          Some i
      | _ -> find_write (i + 1)
  in
  match find_write 0 with
  | None -> None (* T never updates M in this suffix *)
  | Some w ->
      (* T's previous access to M before the write *)
      let rec prev_access i =
        if i < 0 then None
        else
          let e = events.(i) in
          if
            e.Res_vm.Event.tid = tid
            && Res_vm.Event.touched_addr e = Some addr
          then Some i
          else prev_access (i - 1)
      in
      let preempted =
        match prev_access (w - 1) with
        | None -> false (* no earlier access: nothing to be stale against *)
        | Some p ->
            let rec foreign i =
              i < w
              && (events.(i).Res_vm.Event.tid <> tid || foreign (i + 1))
            in
            foreign (p + 1)
      in
      Some preempted

(** What a transition search found. *)
type transition = {
  tr_pos : int;  (** first position whose value differs from position 0 *)
  tr_before : int;  (** value at [tr_pos - 1] (= value at position 0) *)
  tr_after : int;  (** value at [tr_pos] *)
  tr_probes : int;  (** state evaluations the search made *)
}

(** Binary search the timeline for a position where [eval] flips
    (FReD-style transition watchpoint).

    Evaluates the endpoints; when they agree, reports [None] (no
    transition observable from the endpoints — the FReD precondition).
    Otherwise maintains [eval lo = v0 <> eval hi] and bisects to an
    adjacent pair, returning the higher position: the step executed at
    [tr_pos - 1] changed the value.  O(log n) probes, each O(snapshot
    interval) of replay — and the probe sequence depends only on the
    timeline length and the probed values, never on the interval, so
    transcripts that print probe counts stay byte-identical across
    intervals.  Exceptions from [eval] propagate. *)
let find_transition t eval =
  let probes0 = t.probes in
  let probe n =
    t.probes <- t.probes + 1;
    eval (state_at t n)
  in
  let n = total_steps t in
  let v0 = probe 0 in
  let vn = if n = 0 then v0 else probe n in
  if n = 0 || v0 = vn then None
  else begin
    let lo = ref 0 and hi = ref n and vhi = ref vn in
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      let v = probe mid in
      if v = v0 then lo := mid
      else begin
        hi := mid;
        vhi := v
      end
    done;
    Some
      {
        tr_pos = !hi;
        tr_before = v0;
        tr_after = !vhi;
        tr_probes = t.probes - probes0;
      }
  end

(** The session as a header plus an instruction listing of the trace. *)
let pp ppf t =
  Fmt.pf ppf "@[<v>debugging session: %d steps, crash %a@,%a@]"
    (total_steps t) Res_vm.Crash.pp (crash t)
    Fmt.(list ~sep:cut Res_vm.Event.pp)
    t.trace
