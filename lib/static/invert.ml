(** Static invertibility: which blocks can the backward search step
    across {e without} symbolic execution?

    A block is invertible when every effect it has on the post-state can
    be recomputed, or un-computed, from the post-state alone: pure
    arithmetic inverts algebraically ([add r, c] un-does as a subtract),
    a store un-does by recovering the overwritten cell's pre-value (or
    proving it dead per the slice), and a load constrains its source
    cell.  Instructions that interact with anything outside the
    register file and resolvable memory — calls, inputs, heap
    management, locks, thread operations, log breadcrumbs — are
    barriers: their effects involve state the concrete reverse engine
    does not model, so the classifier rejects the block and the search
    falls back to the symbolic step.

    The classifier is purely syntactic over one block plus the
    {!Summary} lattice (used to explain call barriers); the per-segment
    dynamic conditions — concrete post-state, no relaxed constraints —
    are checked by [Backstep] at step time.  {!Revexec} consumes the
    {!plan} this module synthesizes. *)

module ISet = Set.Make (Int)

(** Right-hand side of a pure definition, as reverse-executable data. *)
type rhs =
  | Rhs_const of int
  | Rhs_mov of int
  | Rhs_binop of Res_ir.Instr.binop * int * int
  | Rhs_unop of Res_ir.Instr.unop * int
  | Rhs_global of string

(** One reverse operation.  [idx] is the instruction's index in the
    source block (for deadness queries and diagnostics). *)
type rop =
  | R_def of { idx : int; dst : int; rhs : rhs }
  | R_load of { idx : int; dst : int; addr : int; off : int }
  | R_store of { idx : int; addr : int; off : int; src : int }
  | R_check of { idx : int; reg : int }  (** assert: [reg] must be nonzero *)

(** Reverse plan for the terminator. *)
type term_plan =
  | T_jmp of string
  | T_br of { reg : int; if_nonzero : string; if_zero : string }

(** A synthesized reverse program for one block.  [pl_rops] is in
    {e reverse} program order (last instruction first) with sliced-out
    pure definitions omitted; [pl_n_instrs] counts the full block so the
    fast path reports the same step count as the symbolic executor. *)
type plan = {
  pl_block : string;
  pl_rops : rop list;
  pl_term : term_plan;
  pl_live_in : ISet.t;  (** upward-exposed registers of the sliced block *)
  pl_defined : ISet.t;  (** all registers the full block defines *)
  pl_n_instrs : int;
  pl_slice : Slice.t;
}

type verdict = Invertible of plan | Not_invertible of string

(* Classify one instruction.  [Ok None]: no effect to reverse.  The
   optional summary refines the reason for call barriers: a call is
   never invertible here (a full-block segment never spans a callee —
   calls are inlined into multi-frame segments the fast path does not
   handle), but an unresolved mod/ref summary is worth naming since no
   amount of inlining will make it concrete. *)
let instr_plan ?summary ~idx (i : Res_ir.Instr.instr) =
  match i with
  | Res_ir.Instr.Const (d, n) -> Ok (Some (R_def { idx; dst = d; rhs = Rhs_const n }))
  | Mov (d, a) -> Ok (Some (R_def { idx; dst = d; rhs = Rhs_mov a }))
  | Binop (op, d, a, b) ->
      Ok (Some (R_def { idx; dst = d; rhs = Rhs_binop (op, a, b) }))
  | Unop (op, d, a) -> Ok (Some (R_def { idx; dst = d; rhs = Rhs_unop (op, a) }))
  | Global_addr (d, g) -> Ok (Some (R_def { idx; dst = d; rhs = Rhs_global g }))
  | Load (d, a, off) -> Ok (Some (R_load { idx; dst = d; addr = a; off }))
  | Store (a, off, s) -> Ok (Some (R_store { idx; addr = a; off; src = s }))
  | Assert (r, _) -> Ok (Some (R_check { idx; reg = r }))
  | Nop -> Ok None
  | Log (tag, _) -> Error (Fmt.str "log %S emits a breadcrumb" tag)
  | Call (_, callee, _) ->
      let unresolved =
        match summary with
        | None -> false
        | Some s ->
            let t = Summary.transitive s callee in
            t.Summary.s_mod.Summary.f_unknown
            || t.Summary.s_ref.Summary.f_unknown
      in
      Error
        (if unresolved then
           Fmt.str "call %s: unresolved mod/ref summary" callee
         else Fmt.str "call %s: segment spans the callee" callee)
  | Input (_, k) ->
      Error (Fmt.str "input %s is non-deterministic" (Res_ir.Instr.input_kind_name k))
  | Alloc _ -> Error "alloc mutates the heap"
  | Free _ -> Error "free mutates the heap"
  | Lock _ -> Error "lock is a synchronization point"
  | Unlock _ -> Error "unlock is a synchronization point"
  | Spawn _ -> Error "spawn creates a thread"
  | Join _ -> Error "join is a synchronization point"

(** Classify [b] and synthesize its reverse plan. *)
let classify ?summary (b : Res_ir.Block.t) : verdict =
  let open Res_ir in
  match
    match b.term with
    | Instr.Jmp l -> Ok (T_jmp l)
    | Instr.Br (r, l1, l0) -> Ok (T_br { reg = r; if_nonzero = l1; if_zero = l0 })
    | Instr.Ret _ -> Error "ret terminator leaves the segment's frame"
    | Instr.Halt -> Error "halt terminator ends the thread"
    | Instr.Abort _ -> Error "abort terminator crashes"
  with
  | Error e -> Not_invertible e
  | Ok pl_term -> (
      let sl = Slice.of_block b in
      let n = Block.length b in
      let rec build i acc =
        if i >= n then Ok acc
        else if not sl.Slice.sl_keep.(i) then build (i + 1) acc
        else
          match instr_plan ?summary ~idx:i b.instrs.(i) with
          | Error e -> Error (Fmt.str "instr %d: %s" i e)
          | Ok None -> build (i + 1) acc
          | Ok (Some r) -> build (i + 1) (r :: acc)
      in
      match build 0 [] with
      | Error e -> Not_invertible e
      | Ok rops ->
          (* Upward-exposed registers of the sliced block: used by a
             kept instruction (or the terminator) before any kept
             definition. *)
          let live_in =
            let defined = ref ISet.empty in
            let live = ref ISet.empty in
            let use r = if not (ISet.mem r !defined) then live := ISet.add r !live in
            List.iter
              (fun rop ->
                match rop with
                | R_def { dst; rhs; _ } ->
                    (match rhs with
                    | Rhs_const _ | Rhs_global _ -> ()
                    | Rhs_mov a | Rhs_unop (_, a) -> use a
                    | Rhs_binop (_, a, b') ->
                        use a;
                        use b');
                    defined := ISet.add dst !defined
                | R_load { dst; addr; _ } ->
                    use addr;
                    defined := ISet.add dst !defined
                | R_store { addr; src; _ } ->
                    use addr;
                    use src
                | R_check { reg; _ } -> use reg)
              (List.rev rops);
            (match pl_term with
            | T_jmp _ -> ()
            | T_br { reg; _ } -> use reg);
            !live
          in
          Invertible
            {
              pl_block = b.label;
              pl_rops = rops;
              pl_term;
              pl_live_in = live_in;
              pl_defined = ISet.of_list (Block.defined_regs b);
              pl_n_instrs = n;
              pl_slice = sl;
            })

(** Program-wide static coverage, reported per workload by the E19
    bench ([bench/main.exe e19]): how many instructions are individually
    invertible, out of how many, and how large the crash slice is. *)
type coverage = { cov_invertible : int; cov_total : int; cov_slice : int }

let program_coverage (p : Res_ir.Prog.t) =
  let summary = Summary.of_prog p in
  let inv = ref 0 and tot = ref 0 and slice = ref 0 in
  List.iter
    (fun (f : Res_ir.Func.t) ->
      let fs = Slice.crash_slice summary f in
      slice := !slice + fs.Slice.fs_size;
      List.iter
        (fun (b : Res_ir.Block.t) ->
          Array.iteri
            (fun i ins ->
              incr tot;
              match instr_plan ~summary ~idx:i ins with
              | Ok _ -> incr inv
              | Error _ -> ())
            b.instrs)
        f.blocks)
    p.Res_ir.Prog.funcs;
  { cov_invertible = !inv; cov_total = !tot; cov_slice = !slice }
