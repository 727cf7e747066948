(** Backward slices over MiniIR: which instructions can influence an
    observation?

    Two granularities:

    - {!of_block} is the intra-block slice the reverse-execution fast
      path consumes.  The backward search observes a segment's {e whole}
      post-state — every register's block-exit value is matched against
      the post snapshot — so the seed is every register the block
      defines plus the terminator's uses, and the only instructions that
      fall out of the slice are pure definitions whose value is
      overwritten before anything (a later instruction, the terminator,
      or the post-state itself) can read it.  Those need no reverse
      treatment at all; the fast path skips them and the search reports
      the count as [slice_skipped].

    - {!crash_slice} is the function-level backward slice w.r.t. the
      crash condition: every instruction that can crash (or transfer
      control somewhere that can), closed backward over register
      def-use chains and — via {!Reach.def_clear_between} — over memory
      cells, so a store enters the slice only if a def-clear path links
      it to an in-slice read of the same cell.  This is the [slice=]
      metric the E19 bench reports per workload; it bounds how much of a
      function the backward search can ever need to treat
      symbolically. *)

module ISet = Set.Make (Int)
module SMap = Map.Make (String)

(** Intra-block slice: [sl_keep.(i)] is false only for instructions the
    reverse step may ignore entirely. *)
type t = { sl_keep : bool array; sl_size : int; sl_skipped : int }

(* A definition with no side effect and no way to crash: droppable when
   its value is provably unobserved.  [Div]/[Rem] can crash, so they are
   never pure. *)
let pure_def (i : Res_ir.Instr.instr) =
  match i with
  | Res_ir.Instr.Const _ | Mov _ | Global_addr _ | Unop _ -> true
  | Binop (op, _, _, _) -> (
      match op with Res_ir.Instr.Div | Rem -> false | _ -> true)
  | _ -> false

let of_block (b : Res_ir.Block.t) =
  let open Res_ir in
  let n = Block.length b in
  let keep = Array.make n true in
  (* Every defined register's exit value is observed by the post-state,
     so seed with all of them: only a def overwritten later (with no
     intervening use) can be dead. *)
  let needed =
    ref (ISet.of_list (Block.defined_regs b @ Instr.term_uses b.term))
  in
  let skipped = ref 0 in
  for i = n - 1 downto 0 do
    let ins = b.instrs.(i) in
    let dead =
      pure_def ins
      &&
      match Instr.defs ins with
      | Some d -> not (ISet.mem d !needed)
      | None -> false
    in
    if dead then begin
      keep.(i) <- false;
      incr skipped
    end
    else begin
      (match Instr.defs ins with
      | Some d -> needed := ISet.remove d !needed
      | None -> ());
      List.iter (fun r -> needed := ISet.add r !needed) (Instr.uses ins)
    end
  done;
  { sl_keep = keep; sl_size = n - !skipped; sl_skipped = !skipped }

(** Function-level crash slice. *)
type func_slice = {
  fs_keep : bool array SMap.t;  (** per block: instruction is in the slice *)
  fs_total : int;  (** instructions in the function *)
  fs_size : int;  (** instructions in the slice *)
}

(* Can executing [i] crash the program, or transfer control to code that
   can?  Memory accesses crash on unmapped addresses; [Free] on invalid
   frees; [Div]/[Rem] on zero divisors; calls and spawns reach arbitrary
   callee crash sites. *)
let crash_capable (i : Res_ir.Instr.instr) =
  match i with
  | Res_ir.Instr.Assert _ | Free _ | Load _ | Store _ | Lock _ | Unlock _
  | Call _ | Spawn _ ->
      true
  | Binop (op, _, _, _) -> (
      match op with Res_ir.Instr.Div | Rem -> true | _ -> false)
  | Const _ | Mov _ | Unop _ | Global_addr _ | Alloc _ | Input _ | Join _
  | Log _ | Nop ->
      false

let term_crashes (t : Res_ir.Instr.terminator) =
  match t with Res_ir.Instr.Abort _ -> true | _ -> false

let crash_slice summary (f : Res_ir.Func.t) =
  let open Res_ir in
  let envs = Summary.envs_of summary f.Func.name in
  let env_at l =
    Option.value ~default:Absval.IMap.empty (SMap.find_opt l envs)
  in
  (* Forward per-instruction environments, for address resolution. *)
  let benvs =
    List.fold_left
      (fun m (b : Block.t) ->
        let n = Block.length b in
        let arr = Array.make (n + 1) (env_at b.label) in
        for i = 0 to n - 1 do
          arr.(i + 1) <- Absval.transfer arr.(i) b.instrs.(i)
        done;
        SMap.add b.label arr m)
      SMap.empty f.blocks
  in
  (* Blocks from which a crash site is CFG-reachable: their branch
     conditions control whether the crash happens at all, so their
     terminator uses seed the register needs (control dependence,
     over-approximated). *)
  let crashy (b : Block.t) =
    Array.exists crash_capable b.instrs || term_crashes b.term
  in
  let reaches = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Block.t) ->
        if not (Hashtbl.mem reaches b.label) then
          let r =
            crashy b
            || List.exists (Hashtbl.mem reaches) (Block.successors b)
          in
          if r then begin
            Hashtbl.add reaches b.label ();
            changed := true
          end)
      f.blocks
  done;
  let keep =
    List.fold_left
      (fun m (b : Block.t) ->
        SMap.add b.label (Array.make (Block.length b) false) m)
      SMap.empty f.blocks
  in
  (* Cells read by in-slice instructions, with the reading site. *)
  let observers = ref ([] : (Summary.Cell.t * string * int) list) in
  let observed c ~from_block ~from_idx =
    List.exists
      (fun (c', ob, oi) ->
        Summary.Cell.compare c c' = 0
        && (Reach.def_clear_between summary f ~from_block ~from_idx
              ~to_block:ob c
           ||
           (* same-block, store before read: clear if no intervening
              must-write *)
           String.equal ob from_block && from_idx < oi
           &&
           let benv = SMap.find from_block benvs in
           let rec clear i =
             i >= oi
             ||
             (not
                (Reach.must_write benv.(i) c
                   (Func.block f from_block).instrs.(i)))
             && clear (i + 1)
           in
           clear (from_idx + 1)))
      !observers
  in
  let needed_in = ref SMap.empty in
  let observe_reads env b idx (ins : Instr.instr) =
    List.iter
      (fun (a : Instr.access) ->
        if not a.acc_write then
          match Absval.cell_of_access env a with
          | Some c
            when not
                   (List.exists
                      (fun (c', ob, oi) ->
                        Summary.Cell.compare c c' = 0
                        && String.equal ob b && oi = idx)
                      !observers) ->
              observers := (c, b, idx) :: !observers
          | _ -> ())
      (Instr.accesses ins)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Block.t) ->
        let n = Block.length b in
        let karr = SMap.find b.label keep in
        let benv = SMap.find b.label benvs in
        let needed =
          ref
            (List.fold_left
               (fun acc s ->
                 match SMap.find_opt s !needed_in with
                 | Some ns -> ISet.union acc ns
                 | None -> acc)
               ISet.empty (Block.successors b))
        in
        if Hashtbl.mem reaches b.label then
          List.iter
            (fun r -> needed := ISet.add r !needed)
            (Instr.term_uses b.term);
        for i = n - 1 downto 0 do
          let ins = b.instrs.(i) in
          let defines_needed =
            match Instr.defs ins with
            | Some d -> ISet.mem d !needed
            | None -> false
          in
          let feeds_cell =
            match ins with
            | Instr.Store _ -> (
                match Instr.accesses ins with
                | [ a ] -> (
                    match Absval.cell_of_access benv.(i) a with
                    | None -> true (* unresolved: may feed any observer *)
                    | Some c -> observed c ~from_block:b.label ~from_idx:i)
                | _ -> false)
            | _ -> false
          in
          if crash_capable ins || defines_needed || feeds_cell then begin
            if not karr.(i) then begin
              karr.(i) <- true;
              changed := true
            end;
            (match Instr.defs ins with
            | Some d -> needed := ISet.remove d !needed
            | None -> ());
            List.iter (fun r -> needed := ISet.add r !needed) (Instr.uses ins);
            observe_reads benv.(i) b.label i ins
          end
        done;
        let stable =
          match SMap.find_opt b.label !needed_in with
          | Some before -> ISet.equal before !needed
          | None -> ISet.is_empty !needed
        in
        if not stable then begin
          needed_in := SMap.add b.label !needed !needed_in;
          changed := true
        end)
      f.blocks
  done;
  let total = List.fold_left (fun a (b : Block.t) -> a + Block.length b) 0 f.blocks in
  let size =
    SMap.fold
      (fun _ karr a -> Array.fold_left (fun a k -> if k then a + 1 else a) a karr)
      keep 0
  in
  { fs_keep = keep; fs_total = total; fs_size = size }
