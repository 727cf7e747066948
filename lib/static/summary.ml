(** Whole-program mod/ref summaries over MiniIR.

    For every function: which global cells it may read and write, and
    whether it touches the heap — {e transitively} through calls, with a
    Kleene fixpoint over the call graph so recursion converges.

    Cells are [(global, offset)] pairs resolved by {!Absval}; any access
    whose address the abstraction cannot resolve (heap pointers,
    input-derived addresses) sets the footprint's [unknown] flag instead
    of being dropped, so consumers can stay conservative.  Summaries are
    {e may} information: a cell in [s_mod] may be written, a clear
    [unknown] flag means the listed cells are exhaustive. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

(** A global cell: a named global plus a constant word offset. *)
module Cell = struct
  type t = string * int

  let compare (g, o) (h, p) =
    match String.compare g h with 0 -> Int.compare o p | c -> c

  let pp ppf (g, o) = Fmt.pf ppf "%s[%d]" g o
end

module CSet = Set.Make (Cell)

(** A memory footprint: the resolved cells, plus whether some access
    escaped resolution (in which case the footprint covers, potentially,
    all of memory). *)
type foot = { f_cells : CSet.t; f_unknown : bool }

let foot_empty = { f_cells = CSet.empty; f_unknown = false }
let foot_top = { f_cells = CSet.empty; f_unknown = true }

let foot_union a b =
  { f_cells = CSet.union a.f_cells b.f_cells;
    f_unknown = a.f_unknown || b.f_unknown }

let foot_equal a b =
  CSet.equal a.f_cells b.f_cells && Bool.equal a.f_unknown b.f_unknown

(** One function's effect summary. *)
type fsum = {
  s_mod : foot;  (** cells the function may write *)
  s_ref : foot;  (** cells the function may read *)
  s_heap : bool;  (** allocates or frees heap blocks *)
  s_calls : SSet.t;  (** direct callees *)
}

let fsum_empty =
  {
    s_mod = foot_empty;
    s_ref = foot_empty;
    s_heap = false;
    s_calls = SSet.empty;
  }

let fsum_union a b =
  {
    s_mod = foot_union a.s_mod b.s_mod;
    s_ref = foot_union a.s_ref b.s_ref;
    s_heap = a.s_heap || b.s_heap;
    s_calls = SSet.union a.s_calls b.s_calls;
  }

let fsum_equal a b =
  foot_equal a.s_mod b.s_mod && foot_equal a.s_ref b.s_ref
  && Bool.equal a.s_heap b.s_heap
  && SSet.equal a.s_calls b.s_calls

(** Effects of [b] in isolation ({e not} through calls), threading the
    abstract environment from [env0]. *)
let block_direct (b : Res_ir.Block.t) (env0 : Absval.env) =
  let open Res_ir.Instr in
  Array.fold_left
    (fun (sum, env) i ->
      let add_access sum (a : access) =
        let foot =
          match Absval.cell_of_access env a with
          | Some cell -> { f_cells = CSet.singleton cell; f_unknown = false }
          | None -> foot_top
        in
        if a.acc_write then { sum with s_mod = foot_union sum.s_mod foot }
        else { sum with s_ref = foot_union sum.s_ref foot }
      in
      let sum = List.fold_left add_access sum (accesses i) in
      let sum =
        match i with
        | Alloc _ | Free _ -> { sum with s_heap = true }
        | Call (_, f, _) -> { sum with s_calls = SSet.add f sum.s_calls }
        | _ -> sum
      in
      (sum, Absval.transfer env i))
    (fsum_empty, env0) b.Res_ir.Block.instrs
  |> fst

type t = {
  trans : fsum SMap.t;  (** per function, transitively through calls *)
  regs : int option;
      (** [Some n] when every register the program names lies in
          [r0..r(n-1)], with [n] at most {!max_regs}: the length of a
          register-indexed array.  [None] for a negative register or a
          larger one. *)
}

let max_regs = 1 lsl 16

let regs_of_prog (p : Res_ir.Prog.t) =
  let hi = ref (-1) and ok = ref true in
  let see r = if r < 0 || r >= max_regs then ok := false else hi := max !hi r in
  List.iter
    (fun (f : Res_ir.Func.t) ->
      List.iter
        (fun (b : Res_ir.Block.t) ->
          Array.iter
            (fun i ->
              Option.iter see (Res_ir.Instr.defs i);
              List.iter see (Res_ir.Instr.uses i))
            b.instrs;
          List.iter see (Res_ir.Instr.term_uses b.term))
        f.blocks)
    p.funcs;
  if !ok then Some (!hi + 1) else None

(** Direct summary of [f], from its block-entry environments (params
    [Top]). *)
let func_direct (f : Res_ir.Func.t) =
  let envs = Absval.block_envs f ~init:Absval.IMap.empty in
  List.fold_left
    (fun acc (b : Res_ir.Block.t) ->
      match SMap.find_opt b.label envs with
      | None -> acc (* unreachable block: contributes nothing at runtime *)
      | Some env0 -> fsum_union acc (block_direct b env0))
    fsum_empty f.Res_ir.Func.blocks

let of_prog (p : Res_ir.Prog.t) =
  let direct =
    List.fold_left
      (fun dm (f : Res_ir.Func.t) -> SMap.add f.name (func_direct f) dm)
      SMap.empty p.Res_ir.Prog.funcs
  in
  (* Kleene fixpoint: fold callees' transitive summaries into each
     function until nothing changes.  The lattice is finite (cells are
     drawn from the program text, flags are monotone), so this
     terminates — recursion simply converges to the cycle's union. *)
  let trans = ref direct in
  let changed = ref true in
  while !changed do
    changed := false;
    SMap.iter
      (fun fname sum ->
        let folded =
          SSet.fold
            (fun callee acc ->
              match SMap.find_opt callee !trans with
              | Some csum -> fsum_union acc csum
              | None -> acc)
            sum.s_calls sum
        in
        (* Keep s_calls as the direct call edges: the transitive closure
           of effects, not of the call graph itself. *)
        let folded = { folded with s_calls = sum.s_calls } in
        if not (fsum_equal folded (SMap.find fname !trans)) then begin
          trans := SMap.add fname folded !trans;
          changed := true
        end)
      !trans
  done;
  { trans = !trans; regs = regs_of_prog p }

(** The transitive summary of a function: its own effects plus those of
    everything it can call.  Unknown functions get the all-unknown
    summary — consumers must stay conservative. *)
let transitive t fname =
  match SMap.find_opt fname t.trans with
  | Some s -> s
  | None ->
      {
        fsum_empty with
        s_mod = foot_top;
        s_ref = foot_top;
        s_heap = true;
      }
