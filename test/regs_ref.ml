(** The register sets as {!Res_ir.Block} and {!Res_ir.Func} recomputed
    them on every call, before they were stored at construction.  The
    register-set tests in [test_ir] hold the stored sets to these. *)

open Res_ir

let defined_regs (b : Block.t) =
  Array.to_list b.instrs |> List.filter_map Instr.defs |> List.sort_uniq compare

let used_regs (b : Block.t) =
  let from_instrs = Array.to_list b.instrs |> List.concat_map Instr.uses in
  List.sort_uniq compare (from_instrs @ Instr.term_uses b.term)

let all_regs (f : Func.t) =
  let of_block b = defined_regs b @ used_regs b in
  List.concat_map of_block f.blocks @ f.params |> List.sort_uniq compare
