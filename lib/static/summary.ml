(** Whole-program mod/ref summaries over MiniIR.

    For every function: which global cells it may read and write, which
    mutex cells it may lock, and whether it touches the heap, spawns,
    joins, or reads external input — {e transitively} through calls, with
    a Kleene fixpoint over the call graph so recursion converges.

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
  s_locks : CSet.t;  (** mutex cells it may lock/unlock *)
  s_locks_unknown : bool;  (** a lock/unlock through an unresolved address *)
  s_heap : bool;  (** allocates or frees heap blocks *)
  s_inputs : bool;  (** reads external input *)
  s_spawns : SSet.t;  (** functions it may spawn threads in *)
  s_joins : bool;  (** joins on a thread *)
  s_calls : SSet.t;  (** direct callees *)
}

let fsum_empty =
  {
    s_mod = foot_empty;
    s_ref = foot_empty;
    s_locks = CSet.empty;
    s_locks_unknown = false;
    s_heap = false;
    s_inputs = false;
    s_spawns = SSet.empty;
    s_joins = false;
    s_calls = SSet.empty;
  }

let fsum_union a b =
  {
    s_mod = foot_union a.s_mod b.s_mod;
    s_ref = foot_union a.s_ref b.s_ref;
    s_locks = CSet.union a.s_locks b.s_locks;
    s_locks_unknown = a.s_locks_unknown || b.s_locks_unknown;
    s_heap = a.s_heap || b.s_heap;
    s_inputs = a.s_inputs || b.s_inputs;
    s_spawns = SSet.union a.s_spawns b.s_spawns;
    s_joins = a.s_joins || b.s_joins;
    s_calls = SSet.union a.s_calls b.s_calls;
  }

let fsum_equal a b =
  foot_equal a.s_mod b.s_mod && foot_equal a.s_ref b.s_ref
  && CSet.equal a.s_locks b.s_locks
  && Bool.equal a.s_locks_unknown b.s_locks_unknown
  && Bool.equal a.s_heap b.s_heap
  && Bool.equal a.s_inputs b.s_inputs
  && SSet.equal a.s_spawns b.s_spawns
  && Bool.equal a.s_joins b.s_joins
  && SSet.equal a.s_calls b.s_calls

(** Effects of [b] in isolation ({e not} through calls), threading the
    abstract environment from [env0]; returns the block summary and the
    environment at the terminator. *)
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
        | Lock a | Unlock a -> (
            match Absval.read env a with
            | Absval.GPtr (g, o) ->
                { sum with s_locks = CSet.add (g, o) sum.s_locks }
            | _ -> { sum with s_locks_unknown = true })
        | Alloc _ | Free _ -> { sum with s_heap = true }
        | Input _ -> { sum with s_inputs = true }
        | Spawn (_, f, _) -> { sum with s_spawns = SSet.add f sum.s_spawns }
        | Join _ -> { sum with s_joins = true }
        | Call (_, f, _) -> { sum with s_calls = SSet.add f sum.s_calls }
        | _ -> sum
      in
      (sum, Absval.transfer env i))
    (fsum_empty, env0) b.Res_ir.Block.instrs

type t = {
  direct : fsum SMap.t;  (** per function, calls not folded in *)
  trans : fsum SMap.t;  (** per function, transitively through calls *)
  envs : Absval.env SMap.t SMap.t;
      (** per function, block-entry abstract environments (params [Top]) *)
}

(** Direct summary of [f], plus its block-entry environments. *)
let func_direct (f : Res_ir.Func.t) =
  let envs = Absval.block_envs f ~init:Absval.IMap.empty in
  let sum =
    List.fold_left
      (fun acc (b : Res_ir.Block.t) ->
        match SMap.find_opt b.label envs with
        | None -> acc (* unreachable block: contributes nothing at runtime *)
        | Some env0 -> fsum_union acc (fst (block_direct b env0)))
      fsum_empty f.Res_ir.Func.blocks
  in
  (sum, envs)

let of_prog (p : Res_ir.Prog.t) =
  let direct, envs =
    List.fold_left
      (fun (dm, em) (f : Res_ir.Func.t) ->
        let sum, envs = func_direct f in
        (SMap.add f.name sum dm, SMap.add f.name envs em))
      (SMap.empty, SMap.empty) p.Res_ir.Prog.funcs
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
  { direct; trans = !trans; envs }

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
        s_locks_unknown = true;
        s_heap = true;
        s_inputs = true;
        s_joins = true;
      }

(** The direct (call-free) summary of a function. *)
let direct t fname =
  Option.value ~default:fsum_empty (SMap.find_opt fname t.direct)

(** Block-entry abstract environments of [fname] (params are [Top]). *)
let envs_of t fname =
  Option.value ~default:SMap.empty (SMap.find_opt fname t.envs)

(** Summary of one block {e including} its callees' transitive effects:
    the per-block mod/ref unit the backward search prunes with. *)
let block_sum t (f : Res_ir.Func.t) (b : Res_ir.Block.t) =
  let env0 =
    Option.value ~default:Absval.IMap.empty
      (SMap.find_opt b.Res_ir.Block.label (envs_of t f.Res_ir.Func.name))
  in
  let sum, _ = block_direct b env0 in
  SSet.fold
    (fun callee acc -> fsum_union acc (transitive t callee))
    sum.s_calls sum
  |> fun folded -> { folded with s_calls = sum.s_calls }
