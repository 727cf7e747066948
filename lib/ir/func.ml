(** Functions: named parameter registers, an entry label, and basic blocks. *)

module SMap = Map.Make (String)

type t = {
  name : string;
  params : Instr.reg list;
  entry : Instr.label;
  blocks : Block.t list;  (** in source order, entry first by convention *)
  by_label : Block.t SMap.t;
  regs : Instr.reg list;
      (** every register the parameters or any block name, ascending *)
}

(** [v ~name ~params ~entry blocks] builds a function.
    @raise Invalid_argument on duplicate labels or a missing entry block. *)
let v ~name ~params ~entry blocks =
  let by_label =
    List.fold_left
      (fun m (b : Block.t) ->
        if SMap.mem b.label m then
          invalid_arg (Fmt.str "Func.v: duplicate label %s in %s" b.label name)
        else SMap.add b.label b m)
      SMap.empty blocks
  in
  if not (SMap.mem entry by_label) then
    invalid_arg (Fmt.str "Func.v: entry %s missing in %s" entry name);
  let regs =
    List.fold_left
      (fun acc (b : Block.t) ->
        List.rev_append b.defined (List.rev_append b.used acc))
      params blocks
    |> List.sort_uniq Int.compare
  in
  { name; params; entry; blocks; by_label; regs }

(** [block f l] is the block labelled [l].  @raise Not_found if absent. *)
let block f l =
  match SMap.find_opt l f.by_label with
  | Some b -> b
  | None -> raise Not_found

let block_opt f l = SMap.find_opt l f.by_label
let mem_block f l = SMap.mem l f.by_label
let entry_block f = block f f.entry

(** All registers mentioned anywhere in the function, ascending. *)
let all_regs f = f.regs

(** [add buf f] appends the function's text: the [func] header line, its
    blocks in source order, and the closing brace.  No trailing newline. *)
let add buf f =
  Buffer.add_string buf "func ";
  Buffer.add_string buf f.name;
  Buffer.add_char buf '(';
  Instr.add_regs buf f.params;
  Buffer.add_string buf ") {";
  List.iter
    (fun b ->
      Buffer.add_char buf '\n';
      Block.add buf b)
    f.blocks;
  Buffer.add_string buf "\n}"

let pp = Instr.pp_of add

let equal a b =
  String.equal a.name b.name
  && a.params = b.params
  && String.equal a.entry b.entry
  && List.length a.blocks = List.length b.blocks
  && List.for_all2 Block.equal a.blocks b.blocks
