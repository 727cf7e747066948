(** Control-flow graphs and whole-program call/spawn indexes.

    RES navigates the CFG {e backward}; the predecessor map is the
    load-bearing structure here.  The call-site and spawn-site indexes let
    the backward walk continue past a function entry (to the exact caller
    block, disambiguated by the coredump's stack) and past a thread entry
    (to the spawning thread's block). *)

module SMap = Map.Make (String)

(** A call or spawn site: function, block, and instruction index. *)
type site = { in_func : string; in_block : Instr.label; at_idx : int }

type func_cfg = {
  succs : Instr.label list SMap.t;  (** block label -> successor labels *)
  preds : Instr.label list SMap.t;  (** block label -> predecessor labels *)
}

type t = {
  per_func : func_cfg SMap.t;
  call_sites : site list SMap.t;  (** callee name -> sites calling it *)
  spawn_sites : site list SMap.t;  (** thread function name -> spawn sites *)
}

let func_cfg_of (f : Func.t) =
  let succs =
    List.fold_left
      (fun m (b : Block.t) -> SMap.add b.label (Block.successors b) m)
      SMap.empty f.blocks
  in
  let preds =
    let empty =
      List.fold_left
        (fun m (b : Block.t) -> SMap.add b.label [] m)
        SMap.empty f.blocks
    in
    SMap.fold
      (fun src targets m ->
        List.fold_left
          (fun m tgt ->
            match SMap.find_opt tgt m with
            | Some l -> SMap.add tgt (src :: l) m
            | None ->
                (* A dangling branch target would silently truncate the
                   predecessor map — and a truncated CFG makes every
                   analysis built on it (backward search, summaries)
                   quietly wrong.  Validate rejects such programs; refuse
                   to build a CFG for one that slipped through. *)
                invalid_arg
                  (Fmt.str "Cfg: %s:%s branches to unknown block %s" f.name
                     src tgt))
          m targets)
      succs empty
    |> SMap.map (List.sort_uniq String.compare)
  in
  { succs; preds }

let sites_of (p : Prog.t) =
  let calls = ref SMap.empty and spawns = ref SMap.empty in
  let add tbl callee site =
    tbl :=
      SMap.update callee
        (function Some l -> Some (site :: l) | None -> Some [ site ])
        !tbl
  in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          Array.iteri
            (fun i instr ->
              let site = { in_func = f.name; in_block = b.label; at_idx = i } in
              match instr with
              | Instr.Call (_, callee, _) -> add calls callee site
              | Instr.Spawn (_, callee, _) -> add spawns callee site
              | _ -> ())
            b.instrs)
        f.blocks)
    p.funcs;
  (!calls, !spawns)

(** Build the CFG and site indexes for a whole program. *)
let of_prog (p : Prog.t) =
  let per_func =
    List.fold_left
      (fun m (f : Func.t) -> SMap.add f.name (func_cfg_of f) m)
      SMap.empty p.funcs
  in
  let call_sites, spawn_sites = sites_of p in
  { per_func; call_sites; spawn_sites }

let find_func_cfg t fname =
  match SMap.find_opt fname t.per_func with
  | Some c -> c
  | None -> invalid_arg (Fmt.str "Cfg: unknown function %s" fname)

(** Intra-function successors of a block. *)
let successors t ~func ~label =
  match SMap.find_opt label (find_func_cfg t func).succs with
  | Some l -> l
  | None -> invalid_arg (Fmt.str "Cfg.successors: unknown block %s" label)

(** Intra-function predecessors of a block — the candidate set RES
    enumerates at each backward step (Fig. 1's [Pred1]/[Pred2]). *)
let predecessors t ~func ~label =
  match SMap.find_opt label (find_func_cfg t func).preds with
  | Some l -> l
  | None -> invalid_arg (Fmt.str "Cfg.predecessors: unknown block %s" label)

(** Sites that call [callee], empty if never called. *)
let call_sites_of t callee =
  Option.value ~default:[] (SMap.find_opt callee t.call_sites)

(** Sites that spawn a thread running [f], empty if never spawned. *)
let spawn_sites_of t f =
  Option.value ~default:[] (SMap.find_opt f t.spawn_sites)
