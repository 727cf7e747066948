(** Whole programs: named globals (sized in words) plus functions.

    Execution starts at the function named ["main"] unless overridden. *)

module SMap = Map.Make (String)

type global = { gname : string; gsize : int }

type t = {
  globals : global list;
  funcs : Func.t list;
  by_name : Func.t SMap.t;
  globals_by_name : global SMap.t;
}

(** Conventional entry-point name. *)
let main_name = "main"

(** [v ~globals funcs] builds a program.
    @raise Invalid_argument on duplicate function or global names, or on a
    non-positive global size. *)
let v ~globals funcs =
  let by_name =
    List.fold_left
      (fun m (f : Func.t) ->
        if SMap.mem f.name m then
          invalid_arg (Fmt.str "Prog.v: duplicate function %s" f.name)
        else SMap.add f.name f m)
      SMap.empty funcs
  in
  let globals_by_name =
    List.fold_left
      (fun m g ->
        if g.gsize <= 0 then
          invalid_arg (Fmt.str "Prog.v: global %s has size %d" g.gname g.gsize)
        else if SMap.mem g.gname m then
          invalid_arg (Fmt.str "Prog.v: duplicate global %s" g.gname)
        else SMap.add g.gname g m)
      SMap.empty globals
  in
  { globals; funcs; by_name; globals_by_name }

(** [func p name] looks up a function.  @raise Not_found if absent. *)
let func p name =
  match SMap.find_opt name p.by_name with
  | Some f -> f
  | None -> raise Not_found

let func_opt p name = SMap.find_opt name p.by_name
let mem_func p name = SMap.mem name p.by_name
let global_opt p name = SMap.find_opt name p.globals_by_name

(** The program entry function.  @raise Not_found if there is no [main]. *)
let main p = func p main_name

(** [block p ~func ~label] resolves a block by function and label. *)
let block p ~func:fname ~label = Func.block (func p fname) label

(** Total static instruction count (terminators included). *)
let size p =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left (fun acc b -> acc + Block.length b + 1) acc f.blocks)
    0 p.funcs

(** [add buf p] appends the program's text, which {!Parser} reads back:
    one [global] line per global, then the functions, a blank line
    apart.  No trailing newline. *)
let add buf p =
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf "global ";
      Buffer.add_string buf g.gname;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int g.gsize))
    p.globals;
  if p.globals <> [] then Buffer.add_char buf '\n';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf "\n\n";
      Func.add buf f)
    p.funcs

(** The program's text and a final newline.  Cache keys hash these
    bytes, so they must not change.  The buffer starts small enough for
    the minor heap and grows for big programs. *)
let to_string p =
  let buf = Buffer.create 1024 in
  add buf p;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let pp = Instr.pp_of add

let equal a b =
  a.globals = b.globals
  && List.length a.funcs = List.length b.funcs
  && List.for_all2 Func.equal a.funcs b.funcs
