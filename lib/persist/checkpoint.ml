(** Crash-safe persistence of in-flight analyses.

    A checkpoint is a self-contained image of a running {!Res_core.Res}
    analysis: the program, the coredump, the analysis configuration, and
    the {!Res_core.Res.ckpt_state} (deepening position, suffixes of
    completed depths, the suspended search of the depth in progress,
    counters, fuel, and the fresh-symbol counter).  "Self-contained" is
    the point: a resumed process needs nothing but the checkpoint file to
    continue the analysis and produce bit-identical reports.

    The on-disk format reuses the coredump format's building blocks
    ({!Res_vm.Coredump_io}): a line-oriented text record under a
    [rescheckpoint v6] header, sealed with the FNV-1a
    [end <lines> <checksum>] footer, written via temp-file + atomic
    rename.  Loading classifies damage into the same {!dump_error}
    taxonomy as coredumps — truncation, bit corruption, and torn writes
    are detected, never silently analyzed.

    Journal recovery: the atomic writer's only intermediate state is a
    [.tmp] sibling.  {!load} first looks at the sibling — a {e valid}
    [.tmp] is a completed write that missed its rename (promote it), an
    invalid one is a torn write (delete it) — so no sequence of kills
    leaves a torn checkpoint behind. *)

module Io = Res_vm.Coredump_io
module IMap = Map.Make (Int)
open Res_solver

(** Everything a dead process's successor needs. *)
type t = {
  config : Res_core.Res.config;
  prog : Res_ir.Prog.t;
  dump : Res_vm.Coredump.t;
  state : Res_core.Res.ckpt_state;
}

let header = "rescheckpoint v6"

(* --- writers ------------------------------------------------------- *)

let pp_bool ppf b = Fmt.int ppf (if b then 1 else 0)
let pp_int_opt ppf = function None -> Fmt.string ppf "none" | Some n -> Fmt.int ppf n

(* Expressions in prefix form: unambiguous without delimiters. *)
let rec pp_expr ppf (e : Expr.t) =
  match e with
  | Expr.Const n -> Fmt.pf ppf "c %d" n
  | Expr.Sym s -> Fmt.pf ppf "s %d %S" s.Expr.id s.Expr.name
  | Expr.Binop (op, a, b) ->
      Fmt.pf ppf "b %s %a %a" (Res_ir.Instr.binop_name op) pp_expr a pp_expr b
  | Expr.Unop (op, a) ->
      Fmt.pf ppf "u %s %a" (Res_ir.Instr.unop_name op) pp_expr a
  | Expr.Ite (c, a, b) ->
      Fmt.pf ppf "i %a %a %a" pp_expr c pp_expr a pp_expr b

(* Count-prefixed sequences: the reader needs no terminator token. *)
let pp_seq pp_item ppf items =
  Fmt.pf ppf "%d" (List.length items);
  List.iter (fun x -> Fmt.pf ppf " %a" pp_item x) items

let pp_ints = pp_seq Fmt.int

let pp_seg_end ppf (e : Res_core.Suffix.segment_end) =
  match e with
  | Res_core.Suffix.Seg_branch l -> Fmt.pf ppf "br %S" l
  | Res_core.Suffix.Seg_ret -> Fmt.string ppf "ret"
  | Res_core.Suffix.Seg_halt -> Fmt.string ppf "halt"
  | Res_core.Suffix.Seg_crash k -> Fmt.pf ppf "crash %a" Io.pp_kind k
  | Res_core.Suffix.Seg_blocked -> Fmt.string ppf "blocked"

let pp_segment ppf (s : Res_core.Suffix.segment) =
  Fmt.pf ppf "seg %d %S %S %a writes %a reads %a inputs %a locks %a allocs %a spawns %a frees %a steps %d"
    s.Res_core.Suffix.seg_tid s.seg_func s.seg_block pp_seg_end s.seg_end
    pp_ints s.seg_writes pp_ints s.seg_reads
    (pp_seq (fun ppf (k, (sym : Expr.sym)) ->
         Fmt.pf ppf "%s %d %S" (Res_ir.Instr.input_kind_name k) sym.Expr.id
           sym.Expr.name))
    s.seg_inputs
    (pp_seq (fun ppf (acquire, addr) -> Fmt.pf ppf "%a %d" pp_bool acquire addr))
    s.seg_lock_ops pp_ints s.seg_allocs pp_ints s.seg_spawns pp_ints s.seg_frees
    s.seg_steps

let pp_frame ppf (fr : Res_symex.Symframe.t) =
  Fmt.pf ppf "frame %S %S %d %a %a regs %a" fr.Res_symex.Symframe.func fr.block
    fr.idx pp_int_opt fr.ret_reg pp_bool fr.lazy_pre
    (pp_seq (fun ppf (r, e) -> Fmt.pf ppf "%d %a" r pp_expr e))
    (IMap.bindings fr.regs)

let pp_thread ppf (ts : Res_core.Snapshot.thread_state) =
  Fmt.pf ppf "thread %d %a %a frames %a" ts.Res_core.Snapshot.ts_tid
    Io.pp_status ts.ts_status pp_bool ts.ts_stepped (pp_seq pp_frame)
    ts.ts_frames

let pp_heap_block ppf (b : Res_mem.Heap.block) =
  Fmt.pf ppf "%d %d %s %a %a" b.Res_mem.Heap.base b.size
    (match b.state with Res_mem.Heap.Live -> "live" | Res_mem.Heap.Freed -> "freed")
    Io.pp_site b.alloc_site Io.pp_site b.free_site

let pp_snapshot ppf (s : Res_core.Snapshot.t) =
  Fmt.pf ppf "mem %a@,over %a@,heap %d %a@,threads %a@,constraints %a"
    (pp_seq (fun ppf (a, v) -> Fmt.pf ppf "%d %d" a v))
    (Res_mem.Memory.bindings s.Res_core.Snapshot.mem_base)
    (pp_seq (fun ppf (a, e) -> Fmt.pf ppf "%d %a" a pp_expr e))
    (IMap.bindings s.mem_over)
    (Res_mem.Heap.next_addr s.heap)
    (pp_seq pp_heap_block)
    (Res_mem.Heap.blocks s.heap)
    (pp_seq pp_thread)
    (List.map snd (IMap.bindings s.threads))
    (pp_seq pp_expr) s.constraints

(* The crash kind last: [Deadlock]'s tid list is variable-length and the
   reader consumes ints greedily. *)
let pp_crash ppf (c : Res_vm.Crash.t) =
  Fmt.pf ppf "crash %d %a %a" c.Res_vm.Crash.tid Io.pp_pc c.pc Io.pp_kind c.kind

let pp_suffix ppf (sx : Res_core.Suffix.t) =
  Fmt.pf ppf "@[<v>suffix %a@,%a@,segments %a@,%a@,model %a@]" pp_bool
    sx.Res_core.Suffix.complete pp_crash sx.crash (pp_seq pp_segment)
    sx.segments pp_snapshot sx.snapshot
    (pp_seq (fun ppf (id, v) -> Fmt.pf ppf "%d %d" id v))
    (Model.bindings sx.model)

let pp_branch ppf (b : Res_vm.Tracer.branch) =
  Fmt.pf ppf "%d %S %S %S" b.Res_vm.Tracer.br_tid b.br_func b.br_from b.br_to

let pp_log ppf (l : Res_vm.Tracer.log_entry) =
  Fmt.pf ppf "%d %S %d" l.Res_vm.Tracer.log_tid l.log_tag l.log_value

let pp_node ppf (n : Res_core.Search.node) =
  Fmt.pf ppf "@[<v>node %d@,touched %a@,logs %a@,crumbs %a@,segments %a@,%a@]"
    n.Res_core.Search.n_last_tid pp_ints n.n_touched (pp_seq pp_log) n.n_logs
    (pp_seq (fun ppf (tid, branches) ->
         Fmt.pf ppf "%d %a" tid (pp_seq pp_branch) branches))
    (IMap.bindings n.n_crumbs)
    (pp_seq pp_segment) n.n_segments pp_snapshot n.n_snapshot

let pp_bkind ppf (k : Res_core.Backstep.kind) =
  match k with
  | Res_core.Backstep.K_partial None -> Fmt.string ppf "partial none"
  | Res_core.Backstep.K_partial (Some ck) ->
      Fmt.pf ppf "partial some %a" Io.pp_kind ck
  | Res_core.Backstep.K_full { block } -> Fmt.pf ppf "full %S" block
  | Res_core.Backstep.K_final { func; block } ->
      Fmt.pf ppf "final %S %S" func block

let pp_crumbs ppf (crumbs : Res_core.Search.crumbs) =
  (pp_seq (fun ppf (tid, branches) ->
       Fmt.pf ppf "%d %a" tid (pp_seq pp_branch) branches))
    ppf (IMap.bindings crumbs)

let pp_item ppf (it : Res_core.Search.frontier_item) =
  match it with
  | Res_core.Search.F_visit { f_depth; f_node } ->
      Fmt.pf ppf "item visit %d@,%a" f_depth pp_node f_node
  | Res_core.Search.F_eval { e_depth; e_parent; e_node; e_move } ->
      Fmt.pf ppf "item eval %d %d %d %a crumbs %a@,%a" e_depth e_parent
        e_move.Res_core.Search.mv_tid pp_bkind e_move.mv_kind pp_crumbs
        e_move.mv_crumbs pp_node e_node
  | Res_core.Search.F_seal { s_parent; s_node } ->
      Fmt.pf ppf "item seal %d@,%a" s_parent pp_node s_node
  | Res_core.Search.F_emit sx -> Fmt.pf ppf "item emit@,%a" pp_suffix sx

let pp_stats ppf (s : Res_core.Search.stats) =
  Fmt.pf ppf "%d %d %d %d %d %d %d" s.Res_core.Search.nodes s.candidates
    s.feasible s.emitted s.pruned s.reversed s.slice_skipped

let pp_suspended ppf (s : Res_core.Search.suspended) =
  Fmt.pf ppf "@[<v>suspended 1 %a %d@,out %a@,frontier %a@,carry %a@]" pp_stats
    s.Res_core.Search.s_stats s.s_next_id (pp_seq pp_suffix) s.s_out
    (pp_seq pp_item) s.s_frontier (pp_seq pp_item) s.s_carry

let to_string (c : t) =
  let cfg = c.config in
  let sc = cfg.Res_core.Res.search in
  let st = c.state in
  let payload =
    Fmt.str
      "@[<v>%s@,config %d %d %d %a %a %a %d %a %d@,prog %S@,dump %S@,state %d %d %d %a %a %d@,fuel %a@,suffixes %a@,%a@]@."
      header sc.Res_core.Search.max_segments sc.max_suffixes sc.max_nodes
      pp_bool sc.use_breadcrumbs pp_bool sc.static_prune pp_bool sc.reverse_exec
      cfg.determinism_runs pp_bool cfg.stop_at_first_cause cfg.max_attempts
      (Res_ir.Prog.to_string c.prog)
      (Io.to_string c.dump) st.Res_core.Res.ck_attempt st.ck_max_nodes
      st.ck_depth pp_bool st.ck_truncated pp_stats st.ck_stats
      st.ck_expr_counter
      pp_int_opt st.ck_fuel (pp_seq pp_suffix) st.ck_suffixes
      (fun ppf -> function
        | None -> Fmt.string ppf "suspended 0"
        | Some s -> pp_suspended ppf s)
      st.ck_suspended
  in
  Res_core.Sealing.seal payload

(* --- readers ------------------------------------------------------- *)

let keyword rd expected =
  let got = Io.ident rd in
  if not (String.equal got expected) then
    Io.fail "expected %S, got %S" expected got

let bool_of rd =
  match Io.int_tok rd with
  | 0 -> false
  | 1 -> true
  | n -> Io.fail "expected boolean 0/1, got %d" n

let int_opt_of rd =
  match Io.peek rd with
  | Res_ir.Parser.IDENT "none" ->
      ignore (Io.next rd);
      None
  | _ -> Some (Io.int_tok rd)

(* Count-prefixed sequence, read strictly left to right.  The count is
   untrusted bytes: it is bounds-checked before the first element is
   read, so a forged header can never size an allocation. *)
let seq_of rd f =
  let n = Res_core.Sealing.check_count ~what:"sequence" (Io.int_tok rd) in
  let rec go acc k = if k = 0 then List.rev acc else go (f rd :: acc) (k - 1) in
  go [] n

let ints_of rd = seq_of rd Io.int_tok

(* Deeper than any expression the solver actually builds, shallow
   enough that a hostile checkpoint gets a typed error instead of
   exhausting the stack. *)
let max_expr_depth = 10_000

let rec expr_at d rd : Expr.t =
  if d > max_expr_depth then Io.fail "expression too deeply nested";
  match Io.ident rd with
  | "c" -> Expr.Const (Io.int_tok rd)
  | "s" ->
      let id = Io.int_tok rd in
      let name = Io.string_tok rd in
      Expr.Sym { Expr.id; name }
  | "b" -> (
      match Res_ir.Instr.binop_of_name (Io.ident rd) with
      | Some op ->
          let a = expr_at (d + 1) rd in
          let b = expr_at (d + 1) rd in
          Expr.Binop (op, a, b)
      | None -> Io.fail "unknown binary operator")
  | "u" -> (
      match Res_ir.Instr.unop_of_name (Io.ident rd) with
      | Some op -> Expr.Unop (op, expr_at (d + 1) rd)
      | None -> Io.fail "unknown unary operator")
  | "i" ->
      let c = expr_at (d + 1) rd in
      let a = expr_at (d + 1) rd in
      let b = expr_at (d + 1) rd in
      Expr.Ite (c, a, b)
  | k -> Io.fail "unknown expression tag %S" k

let expr_of rd = expr_at 0 rd

let seg_end_of rd : Res_core.Suffix.segment_end =
  match Io.ident rd with
  | "br" -> Res_core.Suffix.Seg_branch (Io.string_tok rd)
  | "ret" -> Res_core.Suffix.Seg_ret
  | "halt" -> Res_core.Suffix.Seg_halt
  | "crash" -> Res_core.Suffix.Seg_crash (Io.kind_of rd)
  | "blocked" -> Res_core.Suffix.Seg_blocked
  | k -> Io.fail "unknown segment end %S" k

let segment_of rd : Res_core.Suffix.segment =
  keyword rd "seg";
  let seg_tid = Io.int_tok rd in
  let seg_func = Io.string_tok rd in
  let seg_block = Io.string_tok rd in
  let seg_end = seg_end_of rd in
  keyword rd "writes";
  let seg_writes = ints_of rd in
  keyword rd "reads";
  let seg_reads = ints_of rd in
  keyword rd "inputs";
  let seg_inputs =
    seq_of rd (fun rd ->
        match Res_ir.Instr.input_kind_of_name (Io.ident rd) with
        | Some k ->
            let id = Io.int_tok rd in
            let name = Io.string_tok rd in
            (k, { Expr.id; name })
        | None -> Io.fail "unknown input kind")
  in
  keyword rd "locks";
  let seg_lock_ops =
    seq_of rd (fun rd ->
        let acquire = bool_of rd in
        (acquire, Io.int_tok rd))
  in
  keyword rd "allocs";
  let seg_allocs = ints_of rd in
  keyword rd "spawns";
  let seg_spawns = ints_of rd in
  keyword rd "frees";
  let seg_frees = ints_of rd in
  keyword rd "steps";
  let seg_steps = Io.int_tok rd in
  {
    Res_core.Suffix.seg_tid;
    seg_func;
    seg_block;
    seg_end;
    seg_writes;
    seg_reads;
    seg_inputs;
    seg_lock_ops;
    seg_allocs;
    seg_spawns;
    seg_frees;
    seg_steps;
  }

let frame_of rd : Res_symex.Symframe.t =
  keyword rd "frame";
  let func = Io.string_tok rd in
  let block = Io.string_tok rd in
  let idx = Io.int_tok rd in
  let ret_reg = int_opt_of rd in
  let lazy_pre = bool_of rd in
  keyword rd "regs";
  let regs =
    seq_of rd (fun rd ->
        let r = Io.int_tok rd in
        (r, expr_of rd))
    |> List.fold_left (fun m (r, e) -> IMap.add r e m) IMap.empty
  in
  { Res_symex.Symframe.func; block; idx; regs; ret_reg; lazy_pre }

let thread_of rd : Res_core.Snapshot.thread_state =
  keyword rd "thread";
  let ts_tid = Io.int_tok rd in
  let ts_status = Io.status_of rd in
  let ts_stepped = bool_of rd in
  keyword rd "frames";
  let ts_frames = seq_of rd frame_of in
  { Res_core.Snapshot.ts_tid; ts_frames; ts_status; ts_stepped }

let heap_block_of rd : Res_mem.Heap.block =
  let base = Io.int_tok rd in
  let size = Io.int_tok rd in
  let state =
    match Io.ident rd with
    | "live" -> Res_mem.Heap.Live
    | "freed" -> Res_mem.Heap.Freed
    | s -> Io.fail "unknown heap block state %S" s
  in
  let alloc_site = Io.site_of rd in
  let free_site = Io.site_of rd in
  { Res_mem.Heap.base; size; state; alloc_site; free_site }

let snapshot_of rd : Res_core.Snapshot.t =
  keyword rd "mem";
  let mem_base =
    seq_of rd (fun rd ->
        let a = Io.int_tok rd in
        (a, Io.int_tok rd))
    |> List.fold_left
         (fun m (a, v) -> Res_mem.Memory.write m a v)
         Res_mem.Memory.empty
  in
  keyword rd "over";
  let mem_over =
    seq_of rd (fun rd ->
        let a = Io.int_tok rd in
        (a, expr_of rd))
    |> List.fold_left (fun m (a, e) -> IMap.add a e m) IMap.empty
  in
  keyword rd "heap";
  let next = Io.int_tok rd in
  let heap = Res_mem.Heap.of_blocks ~next (seq_of rd heap_block_of) in
  keyword rd "threads";
  let threads =
    seq_of rd thread_of
    |> List.fold_left
         (fun m (ts : Res_core.Snapshot.thread_state) ->
           IMap.add ts.Res_core.Snapshot.ts_tid ts m)
         IMap.empty
  in
  keyword rd "constraints";
  let constraints = seq_of rd expr_of in
  { Res_core.Snapshot.mem_base; mem_over; heap; threads; constraints }

let crash_of rd : Res_vm.Crash.t =
  keyword rd "crash";
  let tid = Io.int_tok rd in
  let pc = Io.pc_of rd in
  let kind = Io.kind_of rd in
  { Res_vm.Crash.kind; tid; pc }

let suffix_of rd : Res_core.Suffix.t =
  keyword rd "suffix";
  let complete = bool_of rd in
  let crash = crash_of rd in
  keyword rd "segments";
  let segments = seq_of rd segment_of in
  let snapshot = snapshot_of rd in
  keyword rd "model";
  let model =
    seq_of rd (fun rd ->
        let id = Io.int_tok rd in
        (id, Io.int_tok rd))
    |> List.fold_left
         (fun m (id, v) -> Model.add { Expr.id; name = "" } v m)
         Model.empty
  in
  { Res_core.Suffix.segments; snapshot; model; crash; complete }

let log_of rd : Res_vm.Tracer.log_entry =
  let log_tid = Io.int_tok rd in
  let log_tag = Io.string_tok rd in
  let log_value = Io.int_tok rd in
  { Res_vm.Tracer.log_tid; log_tag; log_value }

let branch_of rd : Res_vm.Tracer.branch =
  let br_tid = Io.int_tok rd in
  let br_func = Io.string_tok rd in
  let br_from = Io.string_tok rd in
  let br_to = Io.string_tok rd in
  { Res_vm.Tracer.br_tid; br_func; br_from; br_to }

let node_of rd : Res_core.Search.node =
  keyword rd "node";
  let n_last_tid = Io.int_tok rd in
  keyword rd "touched";
  let n_touched = ints_of rd in
  keyword rd "logs";
  let n_logs = seq_of rd log_of in
  keyword rd "crumbs";
  let n_crumbs =
    seq_of rd (fun rd ->
        let tid = Io.int_tok rd in
        (tid, seq_of rd branch_of))
    |> List.fold_left (fun m (tid, bs) -> IMap.add tid bs m) IMap.empty
  in
  keyword rd "segments";
  let n_segments = seq_of rd segment_of in
  let n_snapshot = snapshot_of rd in
  {
    Res_core.Search.n_snapshot;
    n_segments;
    n_crumbs;
    n_logs;
    n_last_tid;
    n_touched;
  }

let bkind_of rd : Res_core.Backstep.kind =
  match Io.ident rd with
  | "partial" -> (
      match Io.ident rd with
      | "none" -> Res_core.Backstep.K_partial None
      | "some" -> Res_core.Backstep.K_partial (Some (Io.kind_of rd))
      | k -> Io.fail "unknown partial tag %S" k)
  | "full" -> Res_core.Backstep.K_full { block = Io.string_tok rd }
  | "final" ->
      let func = Io.string_tok rd in
      let block = Io.string_tok rd in
      Res_core.Backstep.K_final { func; block }
  | k -> Io.fail "unknown backstep kind %S" k

let crumbs_of rd : Res_core.Search.crumbs =
  seq_of rd (fun rd ->
      let tid = Io.int_tok rd in
      (tid, seq_of rd branch_of))
  |> List.fold_left (fun m (tid, bs) -> IMap.add tid bs m) IMap.empty

let item_of rd : Res_core.Search.frontier_item =
  keyword rd "item";
  match Io.ident rd with
  | "visit" ->
      let f_depth = Io.int_tok rd in
      Res_core.Search.F_visit { f_depth; f_node = node_of rd }
  | "eval" ->
      let e_depth = Io.int_tok rd in
      let e_parent = Io.int_tok rd in
      let mv_tid = Io.int_tok rd in
      let mv_kind = bkind_of rd in
      keyword rd "crumbs";
      let mv_crumbs = crumbs_of rd in
      Res_core.Search.F_eval
        {
          e_depth;
          e_parent;
          e_node = node_of rd;
          e_move = { Res_core.Search.mv_tid; mv_kind; mv_crumbs };
        }
  | "seal" ->
      let s_parent = Io.int_tok rd in
      Res_core.Search.F_seal { s_parent; s_node = node_of rd }
  | "emit" -> Res_core.Search.F_emit (suffix_of rd)
  | k -> Io.fail "unknown frontier item tag %S" k

let stats_of rd : Res_core.Search.stats =
  let nodes = Io.int_tok rd in
  let candidates = Io.int_tok rd in
  let feasible = Io.int_tok rd in
  let emitted = Io.int_tok rd in
  let pruned = Io.int_tok rd in
  let reversed = Io.int_tok rd in
  let slice_skipped = Io.int_tok rd in
  {
    Res_core.Search.nodes;
    candidates;
    feasible;
    emitted;
    pruned;
    reversed;
    slice_skipped;
  }

let suspended_of rd : Res_core.Search.suspended option =
  keyword rd "suspended";
  match Io.int_tok rd with
  | 0 -> None
  | 1 ->
      let s_stats = stats_of rd in
      let s_next_id = Io.int_tok rd in
      keyword rd "out";
      let s_out = seq_of rd suffix_of in
      keyword rd "frontier";
      let s_frontier = seq_of rd item_of in
      keyword rd "carry";
      let s_carry = seq_of rd item_of in
      Some
        {
          Res_core.Search.s_frontier;
          s_carry;
          s_stats;
          s_next_id;
          s_out;
        }
  | n -> Io.fail "expected suspended 0/1, got %d" n

let parse_payload payload : t =
  let rd = Io.reader payload in
  keyword rd "rescheckpoint";
  keyword rd "v6";
  keyword rd "config";
  let max_segments = Io.int_tok rd in
  let max_suffixes = Io.int_tok rd in
  let max_nodes = Io.int_tok rd in
  let use_breadcrumbs = bool_of rd in
  let static_prune = bool_of rd in
  let reverse_exec = bool_of rd in
  let determinism_runs = Io.int_tok rd in
  let stop_at_first_cause = bool_of rd in
  let max_attempts = Io.int_tok rd in
  let config =
    {
      Res_core.Res.search =
        {
          Res_core.Search.max_segments;
          max_suffixes;
          max_nodes;
          use_breadcrumbs;
          static_prune;
          reverse_exec;
        };
      determinism_runs;
      stop_at_first_cause;
      max_attempts;
    }
  in
  keyword rd "prog";
  let prog = Res_ir.Parser.parse (Io.string_tok rd) in
  keyword rd "dump";
  let dump =
    match Io.of_string_result (Io.string_tok rd) with
    | Ok { Io.dump; _ } -> dump
    | Error e -> Io.fail "embedded coredump: %s" (Io.dump_error_to_string e)
  in
  keyword rd "state";
  let ck_attempt = Io.int_tok rd in
  let ck_max_nodes = Io.int_tok rd in
  let ck_depth = Io.int_tok rd in
  let ck_truncated = bool_of rd in
  let ck_stats = stats_of rd in
  let ck_expr_counter = Io.int_tok rd in
  keyword rd "fuel";
  let ck_fuel = int_opt_of rd in
  keyword rd "suffixes";
  let ck_suffixes = seq_of rd suffix_of in
  let ck_suspended = suspended_of rd in
  (match Io.peek rd with
  | Res_ir.Parser.EOF -> ()
  | _ -> Io.fail "trailing tokens after checkpoint record");
  {
    config;
    prog;
    dump;
    state =
      {
        Res_core.Res.ck_attempt;
        ck_max_nodes;
        ck_depth;
        ck_suffixes;
        ck_truncated;
        ck_stats;
        ck_suspended;
        ck_fuel;
        ck_expr_counter;
      };
  }

let of_string src : (t, Io.dump_error) result =
  match Res_core.Sealing.validate ~header src with
  | Error e -> Error e
  | Ok payload -> (
      try Ok (parse_payload payload) with
      | Io.Bad_format m -> Error (Io.Malformed m)
      | Res_ir.Parser.Parse_error { line; msg } ->
          Error (Io.Malformed (Fmt.str "embedded program, line %d: %s" line msg))
      | exn -> Error (Io.Malformed (Printexc.to_string exn)))

(* --- files --------------------------------------------------------- *)

let save path c = Res_core.Ioshim.write_file_atomic path (to_string c)

let recover_journal path =
  Res_core.Ioshim.recover_journal_with
    ~valid:(Res_core.Sealing.valid ~header)
    path

let load path : (t, Io.dump_error) result =
  recover_journal path;
  match Res_core.Ioshim.read_file path with
  | Error e -> Error e
  | Ok src -> of_string src

(* --- wiring into the analysis -------------------------------------- *)

(** A {!Res_core.Res.checkpointer} that persists every state to [path].
    Write failures are reported as [Error] (the analysis keeps going with
    its previous good checkpoint). *)
let checkpointer ?(every = 25) ~path ~config ~prog ~dump () =
  {
    Res_core.Res.ck_every = every;
    ck_write =
      (fun state ->
        match save path { config; prog; dump; state } with
        | () -> Ok path
        | exception exn -> Error (Printexc.to_string exn));
  }
