(** Def-use facts within a block.

    MiniIR blocks are straight-line, so the uses of a definition are the
    later instructions (and terminator) of its block that read it before
    it is redefined.  The invertibility analysis asks deadness questions
    ("is the value this load clobbers ever observed before the next
    definition?") whose answers decide when a reverse step may treat a
    pre-value as unconstrained. *)

(** Use sites of the value defined at instruction [idx]: the instruction
    indices that read it before it is redefined, and whether the
    terminator reads it (only when no later definition intervenes). *)
let uses_of_def (b : Res_ir.Block.t) ~idx =
  match Res_ir.Instr.defs b.instrs.(idx) with
  | None -> ([], false)
  | Some r ->
      let n = Res_ir.Block.length b in
      let rec scan i acc =
        if i >= n then (List.rev acc, List.mem r (Res_ir.Instr.term_uses b.term))
        else
          let acc =
            if List.mem r (Res_ir.Instr.uses b.instrs.(i)) then i :: acc else acc
          in
          match Res_ir.Instr.defs b.instrs.(i) with
          | Some d when d = r -> (List.rev acc, false)
          | _ -> scan (i + 1) acc
      in
      scan (idx + 1) []

(** Whether the value defined at [idx] is dead within the block: nothing
    (instruction or terminator) reads it before its next definition.  The
    block-exit value of the {e register} may still be observable — deadness
    here is only about this particular definition's value. *)
let dead_after b ~idx =
  match uses_of_def b ~idx with [], false -> true | _ -> false
