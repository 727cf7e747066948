(** Hardware-error identification (paper §3.2).

    "If allowed to run to completion, RES would eventually either
    reconstruct a full start-to-finish execution path, or conclude that no
    such path exists and therefore the coredump is likely due to hardware
    failure."

    [diagnose] first attempts a complete (start-to-finish) reconstruction.
    If none exists, it retries under single-fault hypotheses: exempting one
    memory word (DRAM corruption) or one register of the crashing thread
    (CPU miscompute) from write-history consistency.  A hypothesis that
    restores reconstructability identifies the corrupted location. *)

module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type repair =
  | Memory_error of { addr : int }  (** likely DRAM corruption of this word *)
  | Cpu_error of { tid : int; reg : Res_ir.Instr.reg }
      (** likely miscomputed value in this register *)

type verdict =
  | Software of Res_core.Res.report
      (** a complete software execution reproduces the coredump *)
  | Hardware of repair
  | Inconclusive  (** neither reconstructable nor repairable within budget *)

let pp_verdict ppf = function
  | Software _ -> Fmt.string ppf "software bug"
  | Hardware (Memory_error { addr }) ->
      Fmt.pf ppf "hardware: memory error at 0x%x" addr
  | Hardware (Cpu_error { tid; reg }) ->
      Fmt.pf ppf "hardware: CPU error (thread %d, r%d)" tid reg
  | Inconclusive -> Fmt.string ppf "inconclusive"

type config = {
  search : Res_core.Search.config;
  max_mem_hypotheses : int;  (** cap on memory cells to try exempting *)
  max_reg_hypotheses : int;
}

let default_config =
  {
    search =
      {
        Res_core.Search.default_config with
        max_segments = 12;
        max_suffixes = 2;
        max_nodes = 6000;
      };
    max_mem_hypotheses = 32;
    max_reg_hypotheses = 32;
  }

(** Whether a complete, replay-verified reconstruction exists under [ctx]. *)
let complete_reconstruction config ctx (dump : Res_vm.Coredump.t) =
  let result = Res_core.Search.search ~config:config.search ctx dump in
  List.find_map
    (fun (s : Res_core.Suffix.t) ->
      if not s.Res_core.Suffix.complete then None
      else
        let v = Res_core.Replay.replay ctx s dump in
        if v.Res_core.Replay.reproduced then
          Some
            {
              Res_core.Res.suffix = s;
              verdict = v;
              root_cause = None;
              deterministic = v.Res_core.Replay.pinned;
            }
        else None)
    result.Res_core.Search.suffixes

(** Reconstructability check under a relaxation (hardware hypothesis): a
    complete suffix must exist, but replay verification is waived for the
    exempted location (the replayed software history writes the uncorrupted
    value there, so an exact match is impossible by design). *)
let reconstructs_with config prog ~relaxed_mem ~relaxed_regs dump =
  let ctx = Res_core.Backstep.make_ctx ~relaxed_mem ~relaxed_regs prog in
  let result = Res_core.Search.search ~config:config.search ctx dump in
  List.exists (fun (s : Res_core.Suffix.t) -> s.Res_core.Suffix.complete)
    result.Res_core.Search.suffixes

(** Diagnose one coredump. *)
let diagnose ?(config = default_config) prog (dump : Res_vm.Coredump.t) : verdict
    =
  let ctx = Res_core.Backstep.make_ctx prog in
  match complete_reconstruction config ctx dump with
  | Some report -> Software report
  | None -> (
      (* Memory hypotheses: every recorded cell, bounded. *)
      let cells =
        Res_mem.Memory.bindings dump.Res_vm.Coredump.mem
        |> List.map fst
        |> List.filteri (fun i _ -> i < config.max_mem_hypotheses)
      in
      let mem_repair =
        List.find_opt
          (fun addr ->
            reconstructs_with config prog
              ~relaxed_mem:(ISet.singleton addr)
              ~relaxed_regs:[] dump)
          cells
      in
      match mem_repair with
      | Some addr -> Hardware (Memory_error { addr })
      | None -> (
          (* Register hypotheses: recorded registers of the crashing
             thread's frames. *)
          let crash_tid = dump.Res_vm.Coredump.crash.Res_vm.Crash.tid in
          let regs =
            List.concat_map
              (fun (fr : Res_vm.Frame.t) ->
                List.map fst (Res_vm.Frame.reg_bindings fr))
              (Res_vm.Coredump.crashing_thread dump).Res_vm.Thread.frames
            |> List.sort_uniq compare
            |> List.filteri (fun i _ -> i < config.max_reg_hypotheses)
          in
          let reg_repair =
            List.find_opt
              (fun reg ->
                reconstructs_with config prog ~relaxed_mem:ISet.empty
                  ~relaxed_regs:[ (crash_tid, reg) ]
                  dump)
              regs
          in
          match reg_repair with
          | Some reg -> Hardware (Cpu_error { tid = crash_tid; reg })
          | None -> Inconclusive))
