(** Def-clear reachability over a function's CFG, parameterized by what
    each instruction does to one tracked cell.

    This answers the question "starting just after program point P, can
    execution reach block B without first passing a write to cell X?" —
    the def-clear paths query behind the backward crash slicer
    ({!Slice}).

    Only a {e must}-write kills a path: a store through an address
    resolved to exactly the tracked cell, with no access of the same
    instruction reading the cell or escaping resolution.  May-writes
    (unresolved stores, calls) and reads never kill a path, so the query
    over-approximates the def-clear paths and the slice it feeds stays
    sound. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

(** Whether [i] definitely overwrites [cell] under [env]. *)
let must_write env (cell : Summary.Cell.t) (i : Res_ir.Instr.instr) =
  let accs =
    List.map
      (fun (a : Res_ir.Instr.access) ->
        (a.acc_write, Absval.cell_of_access env a))
      (Res_ir.Instr.accesses i)
  in
  List.exists (fun (w, c) -> w && c = Some cell) accs
  && List.for_all
       (function _, None -> false | w, Some c -> w || c <> cell)
       accs

(** [def_clear_between summary f ~from_block ~from_idx ~to_block cell] — is
    there a CFG path from just {e after} instruction [from_idx] of
    [from_block] ([from_idx = -1]: from the block's entry) to the {e start}
    of [to_block], along which no intervening instruction must-writes
    [cell]?  [to_block]'s own body is not walked.

    This is the segment-boundary liveness query behind the backward
    slicer: a store to [cell] contributes to the value the crash segment
    observes only if such a def-clear path exists from the store to the
    observing block.  Reads never kill a path (only must-writes do), and
    may-writes (unresolved stores, calls) do not kill it either — the
    query is a may-path, so over-approximation keeps the slice sound. *)
let def_clear_between summary (f : Res_ir.Func.t) ~from_block ~from_idx
    ~to_block cell =
  let envs = Summary.envs_of summary f.Res_ir.Func.name in
  let env_at l =
    Option.value ~default:Absval.IMap.empty (SMap.find_opt l envs)
  in
  (* Scan [b] from [idx]: [`Killed] if a must-write is hit, else [`Fell]. *)
  let scan (b : Res_ir.Block.t) ~idx env =
    let n = Res_ir.Block.length b in
    let rec go i env =
      if i >= n then `Fell
      else if must_write env cell b.instrs.(i) then `Killed
      else go (i + 1) (Absval.transfer env b.instrs.(i))
    in
    go idx env
  in
  let b0 = Res_ir.Func.block f from_block in
  let env0 =
    let e = ref (env_at from_block) in
    for i = 0 to min from_idx (Res_ir.Block.length b0 - 1) do
      e := Absval.transfer !e b0.Res_ir.Block.instrs.(i)
    done;
    !e
  in
  match scan b0 ~idx:(max 0 (from_idx + 1)) env0 with
  | `Killed -> false
  | `Fell ->
      let seen = ref SSet.empty in
      let q = Queue.create () in
      let found = ref false in
      let push s =
        if String.equal s to_block then found := true else Queue.add s q
      in
      List.iter push (Res_ir.Block.successors b0);
      while (not !found) && not (Queue.is_empty q) do
        let l = Queue.pop q in
        if not (SSet.mem l !seen) then begin
          seen := SSet.add l !seen;
          let b = Res_ir.Func.block f l in
          match scan b ~idx:0 (env_at l) with
          | `Killed -> ()
          | `Fell -> List.iter push (Res_ir.Block.successors b)
        end
      done;
      !found
