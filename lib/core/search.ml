(** Backward search for execution suffixes.

    Starting from the coredump, the search repeatedly chooses a thread and
    applies one backward step ({!Backstep}), building the suffix one
    segment at a time.  Snapshot compatibility (the solver) prunes
    infeasible candidates; optional LBR breadcrumbs prune harder (paper
    §2.4); the static chain refuter ({!Res_static.Chain}) skips candidate
    steps whose symbolic execution is statically guaranteed to be rejected
    by the solver.  The search yields every feasible suffix of the
    requested length, crashing thread prioritized. *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)
open Res_solver

type config = {
  max_segments : int;  (** how far back to synthesize *)
  max_suffixes : int;
      (** stop after this many feasible suffixes, re-emitted ones included *)
  max_nodes : int;
      (** search budget: backward steps {e this call} may evaluate — a call
          that continues the previous depth's carry does not re-count the
          steps that depth already took *)
  use_breadcrumbs : bool;  (** prune candidate predecessors with the LBR *)
  static_prune : bool;
      (** skip candidate steps the static chain refuter proves the solver
          would reject — admissible: emitted suffixes are identical either
          way, only the work differs *)
  reverse_exec : bool;
      (** decide proven-invertible full-block segments by concrete reverse
          execution, skipping symbolic execution and the solver —
          admissible: emitted suffixes are identical either way *)
}

let default_config =
  {
    max_segments = 6;
    max_suffixes = 4;
    max_nodes = 4000;
    use_breadcrumbs = false;
    static_prune = true;
    reverse_exec = true;
  }

(** Work counters of one call, or with {!add_stats} of several.  A call
    that continues the previous depth's carry counts only the work it does
    itself; [emitted] counts every suffix it returns, re-emitted ones
    included. *)
type stats = {
  mutable nodes : int;  (** backward-step evaluations performed *)
  mutable candidates : int;  (** backward-step candidates generated *)
  mutable feasible : int;  (** candidates that survived the solver *)
  mutable emitted : int;  (** suffixes produced *)
  mutable pruned : int;  (** candidates refuted statically, never evaluated *)
  mutable reversed : int;
      (** backward steps decided by concrete reverse execution *)
  mutable slice_skipped : int;
      (** instructions the reverse steps skipped as outside the slice *)
}

let new_stats () =
  {
    nodes = 0;
    candidates = 0;
    feasible = 0;
    emitted = 0;
    pruned = 0;
    reversed = 0;
    slice_skipped = 0;
  }

(** Add [s]'s counts to [into]. *)
let add_stats ~into s =
  into.nodes <- into.nodes + s.nodes;
  into.candidates <- into.candidates + s.candidates;
  into.feasible <- into.feasible + s.feasible;
  into.emitted <- into.emitted + s.emitted;
  into.pruned <- into.pruned + s.pruned;
  into.reversed <- into.reversed + s.reversed;
  into.slice_skipped <- into.slice_skipped + s.slice_skipped

(** Per-thread LBR breadcrumbs: branches of the thread's root function,
    most recent first — exactly the segment-end branches, in reverse
    chronological order. *)
type crumbs = Res_vm.Tracer.branch list IMap.t

let crumbs_of_dump ctx (dump : Res_vm.Coredump.t) : crumbs =
  let root_func_of tid =
    match IMap.find_opt tid dump.Res_vm.Coredump.threads with
    | Some (th : Res_vm.Thread.t) -> (
        match List.rev th.frames with
        | (root : Res_vm.Frame.t) :: _ -> Some root.func
        | [] -> None)
    | None -> None
  in
  ignore ctx;
  List.fold_left
    (fun m (b : Res_vm.Tracer.branch) ->
      match root_func_of b.br_tid with
      | Some root when String.equal root b.br_func ->
          IMap.update b.br_tid
            (function Some l -> Some (l @ [ b ]) | None -> Some [ b ])
            m
      | _ -> m)
    IMap.empty
    (Res_vm.Tracer.branches dump.Res_vm.Coredump.tracer)

type node = {
  n_snapshot : Snapshot.t;
  n_segments : Suffix.segment list;  (** oldest first *)
  n_crumbs : crumbs;
  n_logs : Res_vm.Tracer.log_entry list;
      (** dump error-log entries not yet attributed to a segment, most
          recent first — the paper's second breadcrumb source *)
  n_last_tid : int;  (** thread of the most recently prepended segment *)
  n_touched : int list;  (** addresses the suffix reads/writes, for pointer hints *)
}

(** Match a segment's [log] emissions against the unconsumed tail of the
    coredump's error log.  The segment's emissions, newest first, must be
    the next unconsumed entries (the error log records everything, so a
    mismatch is a contradiction).  Returns the value-equality constraints
    and the remaining log, or [None] to prune. *)
let consume_logs ~tid ap_logs remaining =
  let rec go acc remaining = function
    | [] -> Some (acc, remaining)
    | (tag, e) :: rest -> (
        match remaining with
        | (entry : Res_vm.Tracer.log_entry) :: remaining'
          when entry.log_tid = tid && String.equal entry.log_tag tag ->
            go
              (Expr.eq e (Expr.const entry.log_value) :: acc)
              remaining' rest
        | _ -> None)
  in
  go [] remaining (List.rev ap_logs)

(** Candidate moves from a node: [(tid, kind, crumbs-after)] in priority
    order. *)
let candidate_moves ctx config (node : node) =
  let snapshot = node.n_snapshot in
  let moves_for (ts : Snapshot.thread_state) =
    let tid = ts.Snapshot.ts_tid in
    match ts.Snapshot.ts_status with
    | Res_vm.Thread.Halted ->
        (* Terminal segment: any ret/halt block of the thread's possible
           root functions.  The coredump records no frames for halted
           threads, but tid 0 always runs [main] and spawned threads run a
           function some spawn site names. *)
        let funcs =
          if tid = 0 then [ Res_ir.Prog.main_name ]
          else
            List.filter_map
              (fun (f : Res_ir.Func.t) ->
                if Res_ir.Cfg.spawn_sites_of ctx.Backstep.cfg f.name <> [] then
                  Some f.name
                else None)
              ctx.Backstep.prog.Res_ir.Prog.funcs
            |> List.sort_uniq compare
        in
        List.concat_map
          (fun fname ->
            let f = Res_ir.Prog.func ctx.Backstep.prog fname in
            List.filter_map
              (fun (b : Res_ir.Block.t) ->
                match b.term with
                | Res_ir.Instr.Ret _ | Res_ir.Instr.Halt ->
                    Some
                      ( tid,
                        Backstep.K_final { func = fname; block = b.label },
                        node.n_crumbs )
                | _ -> None)
              f.blocks)
          funcs
    | Res_vm.Thread.Blocked_on_lock _ | Res_vm.Thread.Blocked_on_join _
      when not ts.Snapshot.ts_stepped ->
        let crash =
          match ts.Snapshot.ts_status with
          | Res_vm.Thread.Blocked_on_lock _ ->
              Some (Res_vm.Crash.Deadlock [])
          | _ -> None
        in
        [ (tid, Backstep.K_partial crash, node.n_crumbs) ]
    | _ -> (
        (* Runnable (or blocked-but-stepped, which cannot happen): the
           thread sits at a segment boundary. *)
        match ts.Snapshot.ts_frames with
        | [ fr ] when fr.Res_symex.Symframe.idx = 0 ->
            let func = fr.Res_symex.Symframe.func in
            let label = fr.Res_symex.Symframe.block in
            let preds = Res_ir.Cfg.predecessors ctx.Backstep.cfg ~func ~label in
            let preds, crumbs' =
              if not config.use_breadcrumbs then (preds, node.n_crumbs)
              else
                match IMap.find_opt tid node.n_crumbs with
                | Some (b :: rest) ->
                    if String.equal b.Res_vm.Tracer.br_to label then
                      ( List.filter
                          (String.equal b.Res_vm.Tracer.br_from)
                          preds,
                        IMap.add tid rest node.n_crumbs )
                    else ([], node.n_crumbs) (* contradicts the LBR *)
                | Some [] | None -> (preds, node.n_crumbs)
            in
            List.map
              (fun p -> (tid, Backstep.K_full { block = p }, crumbs'))
              preds
        | _ ->
            (* mid-segment with frames but not stepped: in-progress *)
            if ts.Snapshot.ts_stepped then []
            else [ (tid, Backstep.K_partial None, node.n_crumbs) ])
  in
  (* Prioritize: the thread that ran the following segment first (temporal
     locality), then ascending tid. *)
  let threads =
    Snapshot.threads snapshot
    |> List.sort (fun a b ->
           let w (ts : Snapshot.thread_state) =
             if ts.Snapshot.ts_tid = node.n_last_tid then 0 else 1
           in
           match compare (w a) (w b) with
           | 0 -> compare a.Snapshot.ts_tid b.Snapshot.ts_tid
           | c -> c)
  in
  List.concat_map moves_for threads

(** Whether the node has reconstructed the whole execution: only the main
    thread remains, sitting at the program entry. *)
let at_program_start ctx (node : node) =
  let threads = Snapshot.threads node.n_snapshot in
  match threads with
  | [ ts ] when ts.Snapshot.ts_tid = 0 -> (
      match ts.Snapshot.ts_frames with
      | [ fr ] ->
          let m = Res_ir.Prog.main ctx.Backstep.prog in
          String.equal fr.Res_symex.Symframe.func Res_ir.Prog.main_name
          && String.equal fr.Res_symex.Symframe.block m.Res_ir.Func.entry
          && fr.Res_symex.Symframe.idx = 0
      | _ -> false)
  | _ -> false

(** One candidate backward step, not yet evaluated. *)
type move = {
  mv_tid : int;
  mv_kind : Backstep.kind;
  mv_crumbs : crumbs;  (** the node's crumbs after this move consumes its *)
}

(** One pending unit of search work.  The frontier is lazy at the
    granularity of a single backward step: visiting a node generates its
    candidate moves (cheap, prunable) without evaluating any of them, each
    [F_eval] runs exactly one symbolic backward step when popped, and the
    [F_seal] below a node's evals detects — after all of them have run —
    that none produced a child, which is the dead-end emission point.  The
    first eval that does produce a child deletes its node's seal.

    Laziness is what makes static pruning pay: a refuted candidate is
    dropped at generation time and its symbolic execution and solver calls
    never happen.  The depth-first visit order (and therefore fresh-symbol
    allocation, solver queries, and suffix emission) is identical with and
    without pruning, because a refuted eval is exactly one that would have
    produced no children.

    The frontier (work stack, next-to-visit first) is the {e entire}
    mutable state of the search besides its counters, its emitted
    suffixes and the carry it is recording — which is what lets the next
    depth continue the traversal from a carry.

    [F_emit] only ever comes from a carry (see {!search}): a suffix an
    earlier depth emitted at a dead end or at the program start, which
    every deeper search emits again at the same point of its traversal. *)
type frontier_item =
  | F_visit of { f_depth : int; f_node : node }
  | F_eval of {
      e_depth : int;  (** depth of the node being expanded *)
      e_parent : int;  (** visit id of the node, pairs evals with the seal *)
      e_node : node;
      e_move : move;
    }
  | F_seal of { s_parent : int; s_node : node }
  | F_emit of Suffix.t  (** re-emit a built suffix, no solver call *)

type result = {
  suffixes : Suffix.t list;
  stats : stats;
  complete : bool;  (** false when a node budget or deadline was exhausted *)
  exhausted : Budget.exhaustion option;
      (** why the shared {!Budget} stopped the search, when it did *)
}

(* --- static pruning glue ------------------------------------------- *)

let chain_value_of_expr : Expr.t -> Res_static.Chain.value = function
  | Expr.Const n -> Res_static.Chain.Known n
  | _ -> Res_static.Chain.Top

(** Register closure over a symbolic frame, with {!Backstep.seed_frame}'s
    convention: a register absent from the frame reads as zero. *)
let frame_values (fr : Res_symex.Symframe.t) r =
  match Res_symex.Symframe.read_opt fr r with
  | Some e -> chain_value_of_expr e
  | None -> Res_static.Chain.Known 0

(** Build the candidate chain and query for {!Res_static.Chain.refute}, or
    raise [Exit] when the move's shape doesn't fit the refuter (partial
    moves, threads without the expected frames) — meaning: don't prune. *)
let prune_query ctx ~stop_snapshot (node : node) tid kind =
  let open Res_static.Chain in
  let candidate =
    match kind with
    | Backstep.K_partial _ -> raise Exit (* never prune partial segments *)
    | Backstep.K_full { block } -> (
        let ts = Snapshot.thread node.n_snapshot tid in
        match Backstep.root_frame ts with
        | None -> raise Exit
        | Some fr ->
            {
              sg_func = fr.Res_symex.Symframe.func;
              sg_block = block;
              sg_end = End_branch fr.Res_symex.Symframe.block;
            })
    | Backstep.K_final { func; block } -> (
        let f = Res_ir.Prog.func ctx.Backstep.prog func in
        let b = Res_ir.Func.block f block in
        match b.Res_ir.Block.term with
        | Res_ir.Instr.Ret _ -> { sg_func = func; sg_block = block; sg_end = End_ret }
        | Res_ir.Instr.Halt ->
            { sg_func = func; sg_block = block; sg_end = End_halt }
        | _ -> raise Exit)
  in
  (* The thread's already-synthesized segments run after the candidate,
     oldest first.  The last one, if partial, stops at the coredump frame
     position of this thread. *)
  let stop_frame =
    lazy
      (match Backstep.root_frame (Snapshot.thread stop_snapshot tid) with
      | Some fr -> fr
      | None -> raise Exit)
  in
  let rest =
    List.filter_map
      (fun (seg : Suffix.segment) ->
        if seg.Suffix.seg_tid <> tid then None
        else
          let sg_end =
            match seg.Suffix.seg_end with
            | Suffix.Seg_branch l -> End_branch l
            | Suffix.Seg_ret -> End_ret
            | Suffix.Seg_halt -> End_halt
            | Suffix.Seg_crash _ | Suffix.Seg_blocked ->
                let fr = Lazy.force stop_frame in
                if
                  String.equal seg.Suffix.seg_func fr.Res_symex.Symframe.func
                  && String.equal seg.Suffix.seg_block
                       fr.Res_symex.Symframe.block
                then End_stop fr.Res_symex.Symframe.idx
                else raise Exit
          in
          Some
            { sg_func = seg.Suffix.seg_func; sg_block = seg.Suffix.seg_block; sg_end })
      node.n_segments
  in
  let seed =
    match kind with
    | Backstep.K_final _ ->
        (* halted thread: no post frame, nothing known *)
        fun _ -> Top
    | _ -> (
        match Backstep.root_frame (Snapshot.thread node.n_snapshot tid) with
        | None -> fun _ -> Top
        | Some fr -> frame_values fr)
  in
  let post_mem addr =
    if ISet.mem addr ctx.Backstep.relaxed_mem then None
    else
      match Snapshot.read_mem node.n_snapshot addr with
      | Expr.Const n -> Some n
      | _ -> None
  in
  let goal =
    match Backstep.root_frame (Snapshot.thread stop_snapshot tid) with
    | Some fr -> Some (frame_values fr)
    | None -> None
  in
  let relaxed =
    List.filter_map
      (fun (t, r) -> if t = tid then Some r else None)
      ctx.Backstep.relaxed_regs
    |> Res_static.Chain.ISet.of_list
  in
  let query =
    {
      q_prog = ctx.Backstep.prog;
      q_summary = ctx.Backstep.statics;
      q_tid = tid;
      q_seed = seed;
      q_post_mem = post_mem;
      q_goal = goal;
      q_relaxed_regs = relaxed;
      q_resolve_global =
        (fun g ->
          match Res_mem.Layout.global_base ctx.Backstep.layout g with
          | base -> Some base
          | exception Not_found -> None);
      q_is_heap_addr = Res_mem.Layout.in_heap_region;
    }
  in
  (query, candidate :: rest)

(** Whether the static chain refuter proves the solver would reject every
    outcome of this move.  [false] on any shape mismatch: pruning is
    best-effort, feasibility is the solver's call. *)
let statically_refuted ctx ~stop_snapshot node tid kind =
  match prune_query ctx ~stop_snapshot node tid kind with
  | query, chain -> Res_static.Chain.refute query chain <> None
  | exception Exit -> false

(** The carry a call leaves on its context: the next, one-deeper call's
    search, suspended before its first pop — its frontier is the
    traversal as events, next-to-process first, and it continues this
    call's visit-id counter. *)
type Backstep.carry +=
  | Carry of {
      c_config : config;  (** the config of the call that left it *)
      c_dump : Res_vm.Coredump.t;
      c_frontier : frontier_item list;
      c_next_id : int;
    }

(** Synthesize suffixes of up to [max_segments] segments for [dump].
    [snapshot0] overrides the base snapshot — e.g.
    {!Snapshot.of_minidump} for the minidump ablation; the default is the
    full coredump.  [budget] bounds the whole search cooperatively
    (wall-clock deadline and node fuel); when it trips, the suffixes found
    so far are returned with [complete = false].

    Deepening costs one expansion per node, not one per node per depth.
    Every call leaves on [ctx] a {e carry}: the next depth's search,
    suspended before its first pop, whose frontier is this call's
    traversal as a list of events — each dead-end or program-start suffix
    it emitted ([F_emit]), each node it reached at [max_segments]
    ([F_visit]), then whatever frontier [max_suffixes] or a budget cut
    off.  A call with [max_segments] one greater, the config otherwise
    equal, over the physically same [dump], and without [snapshot0],
    continues that carry instead of starting from the coredump: it
    expands only the new layer, yet emits the same suffixes in the same
    order as a search from scratch would.  Every other call starts from
    the coredump and replaces the carry. *)
let search ?(config = default_config) ?snapshot0 ?budget ctx
    (dump : Res_vm.Coredump.t) : result =
  let cell = ctx.Backstep.carry in
  let overridden = Option.is_some snapshot0 in
  let carry =
    match !cell with
    | Carry { c_config; c_dump; c_frontier; c_next_id }
      when (not overridden) && c_dump == dump
           && c_config = { config with max_segments = config.max_segments - 1 }
      ->
        Some (c_frontier, c_next_id)
    | _ -> None
  in
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let ctx = Backstep.with_interrupt ctx (Budget.interrupt budget) in
  let stats = new_stats () in
  let next_id = ref (match carry with Some (_, id) -> id | None -> 0) in
  let out = ref [] in
  (* The next call's carry: events newest first, then the frontier a cut
     left unprocessed. *)
  let recorded = ref [] in
  let left = ref [] in
  let budget_hit = ref false in
  let budget_ok () =
    if Budget.tick budget then true
    else begin
      budget_hit := true;
      false
    end
  in
  (* The coredump-time stop state, for the static refuter's goal values. *)
  let snapshot0 =
    match snapshot0 with Some s -> s | None -> Snapshot.of_coredump dump
  in
  let crash = dump.Res_vm.Coredump.crash in
  let push_out sx =
    stats.emitted <- stats.emitted + 1;
    out := sx :: !out
  in
  let emit ?(at_start = false) node =
    if stats.emitted >= config.max_suffixes then None
    else
      (* A suffix that reaches the program start must satisfy the initial
         conditions: zero-initialized globals, empty heap. *)
      let start_constraints =
        if not at_start then Some []
        else if Res_mem.Heap.blocks node.n_snapshot.Snapshot.heap <> [] then None
        else
          Some
            (List.map
               (fun a -> Expr.eq (Snapshot.read_mem node.n_snapshot a) Expr.zero)
               (Snapshot.symbolic_addrs node.n_snapshot))
      in
      match start_constraints with
      | None -> None
      | Some start_cs -> (
          match
            Solver.solve ~config:ctx.Backstep.solver_config
              (start_cs @ node.n_snapshot.Snapshot.constraints)
          with
          | Solver.Sat model ->
              let sx =
                {
                  Suffix.segments = node.n_segments;
                  snapshot = Snapshot.add_constraints node.n_snapshot start_cs;
                  model;
                  crash;
                  complete = at_start;
                }
              in
              push_out sx;
              Some sx
          | Solver.Unsat | Solver.Unknown -> None)
  in
  (* A dead-end or program-start suffix: every deeper search emits it
     again at this point of its traversal. *)
  let emit_final ?at_start node =
    Option.iter
      (fun sx -> recorded := F_emit sx :: !recorded)
      (emit ?at_start node)
  in
  (* The frontier: an explicit work stack (next-to-visit first), visited
     depth-first so expansion order — and therefore fresh-symbol
     allocation, solver queries, and suffix emission — is exactly the
     in-order traversal a recursive DFS would make.  A node's evals are
     pushed in candidate order, so the first candidate is evaluated (and
     its whole subtree drained) before the second. *)
  let stack = ref [] in
  (* Visit a node: emit if terminal, otherwise generate (and statically
     prune) its candidate moves and schedule one eval per survivor, sealed
     below by the dead-end detector. *)
  let visit ~depth (node : node) =
    if at_program_start ctx node then emit_final ~at_start:true node
    else if depth >= config.max_segments then begin
      (* The next depth expands this node instead of emitting it. *)
      recorded := F_visit { f_depth = depth; f_node = node } :: !recorded;
      ignore (emit node)
    end
    else begin
      let moves = candidate_moves ctx config node in
      let kept =
        List.filter
          (fun (tid, kind, _) ->
            stats.candidates <- stats.candidates + 1;
            if
              config.static_prune
              && statically_refuted ctx ~stop_snapshot:snapshot0 node tid kind
            then begin
              stats.pruned <- stats.pruned + 1;
              false
            end
            else true)
          moves
      in
      if kept = [] then begin
        (* Dead end earlier than the target depth: emit what we have, as
           long as the suffix is non-empty. *)
        if node.n_segments <> [] then emit_final node
      end
      else begin
        let id = !next_id in
        incr next_id;
        stack :=
          List.map
            (fun (tid, kind, crumbs') ->
              F_eval
                {
                  e_depth = depth;
                  e_parent = id;
                  e_node = node;
                  e_move = { mv_tid = tid; mv_kind = kind; mv_crumbs = crumbs' };
                })
            kept
          @ (F_seal { s_parent = id; s_node = node } :: !stack)
      end
    end
  in
  (* Evaluate one backward step: symbolic execution plus the feasibility
     solve.  Children are pushed above the node's remaining evals, so the
     first surviving candidate's subtree drains before the second candidate
     is even evaluated. *)
  let eval ~depth ~parent (node : node) mv =
    stats.nodes <- stats.nodes + 1;
    let { Backstep.applied; rejects = _; reversed; slice_skipped } =
      Backstep.step_back ~addr_hint:node.n_touched
        ~reverse_exec:config.reverse_exec ctx node.n_snapshot ~tid:mv.mv_tid
        ~kind:mv.mv_kind
    in
    stats.reversed <- stats.reversed + reversed;
    stats.slice_skipped <- stats.slice_skipped + slice_skipped;
    let children =
      List.filter_map
        (fun (ap : Backstep.applied) ->
          let log_match =
            if not config.use_breadcrumbs then Some ([], node.n_logs)
            else consume_logs ~tid:mv.mv_tid ap.Backstep.ap_logs node.n_logs
          in
          match log_match with
          | None -> None (* contradicts the error log: prune *)
          | Some (log_cs, n_logs) ->
              let snapshot' =
                Snapshot.add_constraints ap.Backstep.ap_snapshot log_cs
              in
              let feasible =
                log_cs = []
                || Solver.solve ~config:ctx.Backstep.solver_config
                     snapshot'.Snapshot.constraints
                   <> Solver.Unsat
              in
              if feasible then begin
                stats.feasible <- stats.feasible + 1;
                let seg = ap.Backstep.ap_segment in
                Some
                  {
                    n_snapshot = snapshot';
                    n_segments = seg :: node.n_segments;
                    n_crumbs = mv.mv_crumbs;
                    n_logs;
                    n_last_tid = mv.mv_tid;
                    n_touched =
                      seg.Suffix.seg_writes @ seg.Suffix.seg_reads
                      @ node.n_touched;
                  }
              end
              else None)
        applied
    in
    if children <> [] then begin
      (* The node is not a dead end: retire its seal. *)
      stack :=
        List.filter
          (function F_seal s -> s.s_parent <> parent | _ -> true)
          !stack;
      stack :=
        List.map (fun n -> F_visit { f_depth = depth + 1; f_node = n }) children
        @ !stack
    end
  in
  let rec drain () =
    match !stack with
    | [] -> ()
    | item :: rest as frontier ->
        if stats.emitted >= config.max_suffixes then begin
          (* Enough suffixes: the recursive search would not expand the
             remaining frontier either — it is left to the next depth. *)
          left := frontier;
          stack := []
        end
        else begin
          if stats.nodes >= config.max_nodes || not (budget_ok ()) then begin
            budget_hit := true;
            left := frontier
          end
          else begin
            stack := rest;
            (match item with
            | F_visit { f_depth; f_node } -> visit ~depth:f_depth f_node
            | F_eval { e_depth; e_parent; e_node; e_move } ->
                eval ~depth:e_depth ~parent:e_parent e_node e_move
            | F_seal { s_node; _ } ->
                (* All of the node's evals ran and none produced a child:
                   the node is a dead end. *)
                if s_node.n_segments <> [] then emit_final s_node
            | F_emit sx ->
                push_out sx;
                recorded := item :: !recorded);
            drain ()
          end
        end
  in
  (match carry with
  | Some (frontier, _) -> stack := frontier
  | None -> (
      let crumbs0 =
        if config.use_breadcrumbs then crumbs_of_dump ctx dump else IMap.empty
      in
      let logs0 =
        if config.use_breadcrumbs then
          Res_vm.Tracer.logs dump.Res_vm.Coredump.tracer
        else []
      in
      match crash.Res_vm.Crash.kind with
      | Res_vm.Crash.Deadlock _ ->
          (* A deadlock's "crash event" is the collective blocked state; the
             blocked threads' in-progress segments are ordinary moves (the
             crashing tid's segment is typically the oldest, not the
             newest). *)
          stack :=
            [
              F_visit
                {
                  f_depth = 0;
                  f_node =
                    {
                      n_snapshot = snapshot0;
                      n_segments = [];
                      n_crumbs = crumbs0;
                      n_logs = logs0;
                      n_last_tid = crash.Res_vm.Crash.tid;
                      n_touched = [];
                    };
                };
            ]
      | _ ->
          (* Otherwise the first backward step is always the crashing
             thread's in-progress segment — evaluated eagerly (it is the
             root of every branch of the search). *)
          stats.candidates <- stats.candidates + 1;
          stats.nodes <- stats.nodes + 1;
          let { Backstep.applied; rejects = _; reversed = _; slice_skipped = _ }
              =
            Backstep.step_back ~reverse_exec:config.reverse_exec ctx snapshot0
              ~tid:crash.Res_vm.Crash.tid
              ~kind:(Backstep.K_partial (Some crash.Res_vm.Crash.kind))
          in
          stack :=
            List.filter_map
              (fun (ap : Backstep.applied) ->
                let log_match =
                  if not config.use_breadcrumbs then Some ([], logs0)
                  else
                    consume_logs ~tid:crash.Res_vm.Crash.tid
                      ap.Backstep.ap_logs logs0
                in
                match log_match with
                | None -> None
                | Some (log_cs, n_logs) ->
                    stats.feasible <- stats.feasible + 1;
                    let seg = ap.Backstep.ap_segment in
                    Some
                      (F_visit
                         {
                           f_depth = 1;
                           f_node =
                             {
                               n_snapshot =
                                 Snapshot.add_constraints
                                   ap.Backstep.ap_snapshot log_cs;
                               n_segments = [ seg ];
                               n_crumbs = crumbs0;
                               n_logs;
                               n_last_tid = crash.Res_vm.Crash.tid;
                               n_touched =
                                 seg.Suffix.seg_writes @ seg.Suffix.seg_reads;
                             };
                         }))
              applied));
  drain ();
  cell :=
    if overridden then Backstep.No_carry
    else
      Carry
        {
          c_config = config;
          c_dump = dump;
          c_frontier = List.rev_append !recorded !left;
          c_next_id = !next_id;
        };
  {
    suffixes = List.rev !out;
    stats;
    complete = not !budget_hit;
    exhausted = Budget.exhausted budget;
  }
