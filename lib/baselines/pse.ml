(** PSE-style backward static analysis baseline (paper §2.2, §5).

    Computes a conservative backward slice from the crash site: every
    instruction that may have contributed to the values the crashing
    instruction observes, via intra-procedural reaching definitions on
    registers plus a may-alias-everything treatment of memory ("typically
    imprecise, as they do not use the rich source of information present
    in the coredump" — and no thread schedule, no concrete values).

    Experiment E10 contrasts the slice's size and precision with the
    read/write set of a RES suffix. *)

module SSet = Set.Make (String)

type slice = {
  instructions : (Res_ir.Pc.t * Res_ir.Instr.instr) list;  (** the slice *)
  store_sites : Res_ir.Pc.t list;  (** potential root-cause writes *)
  functions_touched : string list;
}

let size s = List.length s.instructions

(** Backward slice from [pc].  Criterion: the registers used by the
    instruction at [pc] plus, if it reads memory, {e every} store in the
    program (no points-to information — the defining imprecision). *)
let slice prog (pc : Res_ir.Pc.t) : slice =
  let cfg = Res_ir.Cfg.of_prog prog in
  (* worklist of (func, needed-regs) — per function, which registers'
     definitions matter; memory-dependence makes all stores relevant. *)
  let collected = Hashtbl.create 64 in
  let mem_relevant = ref false in
  let add_instr fpc i =
    if not (Hashtbl.mem collected fpc) then Hashtbl.replace collected fpc i
  in
  let reg_module = Hashtbl.create 16 in
  let rec demand fname regs =
    if regs = [] then ()
    else
      let seen =
        match Hashtbl.find_opt reg_module fname with
        | Some s -> s
        | None -> []
      in
      let fresh = List.filter (fun r -> not (List.mem r seen)) regs in
      if fresh = [] then ()
      else begin
        Hashtbl.replace reg_module fname (fresh @ seen);
        let f = Res_ir.Prog.func prog fname in
        List.iter
          (fun (b : Res_ir.Block.t) ->
            Array.iteri
              (fun idx instr ->
                match Res_ir.Instr.defs instr with
                | Some r when List.mem r fresh ->
                    let fpc = Res_ir.Pc.v ~func:fname ~block:b.label ~idx in
                    add_instr fpc instr;
                    (* transitively demand the operands *)
                    demand fname (Res_ir.Instr.uses instr);
                    (match instr with
                    | Res_ir.Instr.Load _ -> mem_relevant := true
                    | Res_ir.Instr.Call (_, callee, _) ->
                        (* the return value may come from anywhere in the
                           callee: demand its returned registers *)
                        let cf = Res_ir.Prog.func prog callee in
                        List.iter
                          (fun (cb : Res_ir.Block.t) ->
                            match cb.term with
                            | Res_ir.Instr.Ret (Some r) -> demand callee [ r ]
                            | _ -> ())
                          cf.Res_ir.Func.blocks
                    | Res_ir.Instr.Input _ -> ()
                    | _ -> ())
                | _ -> ())
              b.instrs)
          f.Res_ir.Func.blocks;
        (* parameters flow from every call site *)
        let f = Res_ir.Prog.func prog fname in
        let param_demand =
          List.filter (fun r -> List.mem r f.Res_ir.Func.params) fresh
        in
        if param_demand <> [] then
          List.iter
            (fun (site : Res_ir.Cfg.site) ->
              let b =
                Res_ir.Prog.block prog ~func:site.in_func ~label:site.in_block
              in
              match Res_ir.Block.instr b site.at_idx with
              | Res_ir.Instr.Call (_, _, args)
              | Res_ir.Instr.Spawn (_, _, args) ->
                  demand site.in_func args
              | _ -> ())
            (Res_ir.Cfg.call_sites_of cfg fname
            @ Res_ir.Cfg.spawn_sites_of cfg fname)
      end
  in
  (* seed: the crashing instruction's uses *)
  let b = Res_ir.Prog.block prog ~func:pc.Res_ir.Pc.func ~label:pc.Res_ir.Pc.block in
  let seed_uses =
    if pc.Res_ir.Pc.idx < Res_ir.Block.length b then (
      let i = Res_ir.Block.instr b pc.Res_ir.Pc.idx in
      (match i with Res_ir.Instr.Load _ -> mem_relevant := true | _ -> ());
      Res_ir.Instr.uses i)
    else Res_ir.Instr.term_uses b.term
  in
  demand pc.Res_ir.Pc.func seed_uses;
  (* memory dependence: without points-to, every store in the program is a
     potential definition *)
  let store_sites = ref [] in
  if !mem_relevant then
    List.iter
      (fun (f : Res_ir.Func.t) ->
        List.iter
          (fun (blk : Res_ir.Block.t) ->
            Array.iteri
              (fun idx instr ->
                match instr with
                | Res_ir.Instr.Store (a, _, v) ->
                    let fpc = Res_ir.Pc.v ~func:f.name ~block:blk.label ~idx in
                    add_instr fpc instr;
                    store_sites := fpc :: !store_sites;
                    demand f.name [ a; v ]
                | _ -> ())
              blk.instrs)
          f.Res_ir.Func.blocks)
      prog.Res_ir.Prog.funcs;
  let instructions =
    Hashtbl.fold (fun fpc i acc -> (fpc, i) :: acc) collected []
    |> List.sort (fun (a, _) (b, _) -> Res_ir.Pc.compare a b)
  in
  let functions_touched =
    List.fold_left
      (fun acc (fpc, _) -> SSet.add fpc.Res_ir.Pc.func acc)
      SSet.empty instructions
    |> SSet.elements
  in
  { instructions; store_sites = List.rev !store_sites; functions_touched }

