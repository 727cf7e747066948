(** Post-crash breadcrumbs that are "cheap to collect after the crash"
    (paper §2.4): a software Last Branch Record ring buffer and the
    program's own error log.  Both ship inside the coredump and are the
    {e only} runtime information RES may consume besides the dump itself. *)

(** One retired branch: thread, source block, destination block. *)
type branch = {
  br_tid : int;
  br_func : string;
  br_from : Res_ir.Instr.label;
  br_to : Res_ir.Instr.label;
}

(** One [log] instruction occurrence. *)
type log_entry = { log_tid : int; log_tag : string; log_value : int }

type t = {
  lbr_depth : int;  (** ring capacity; 0 disables the LBR *)
  lbr : branch list;  (** most recent first, length <= lbr_depth *)
  logs : log_entry list;  (** most recent first, unbounded *)
}

(** [create ~lbr_depth] — Intel LBR keeps 16 entries; depth is configurable
    for the E6 search-space experiment. *)
let create ~lbr_depth = { lbr_depth; lbr = []; logs = [] }

(* The first [n] entries of a list, in one bounded walk. *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record_branch t ~tid ~func ~from_label ~to_label =
  if t.lbr_depth = 0 then t
  else
    let entry = { br_tid = tid; br_func = func; br_from = from_label; br_to = to_label } in
    { t with lbr = entry :: take (t.lbr_depth - 1) t.lbr }

let record_log t ~tid ~tag ~value =
  { t with logs = { log_tid = tid; log_tag = tag; log_value = value } :: t.logs }

let append earlier later =
  {
    later with
    lbr = take later.lbr_depth (later.lbr @ earlier.lbr);
    logs = later.logs @ earlier.logs;
  }

(** Branches, most recent first. *)
let branches t = t.lbr

(** Log entries, most recent first. *)
let logs t = t.logs

let pp_branch ppf b =
  Fmt.pf ppf "t%d %s:%s->%s" b.br_tid b.br_func b.br_from b.br_to

let pp ppf t =
  Fmt.pf ppf "@[<v>LBR(%d):@,%a@,logs:@,%a@]" t.lbr_depth
    Fmt.(list ~sep:cut pp_branch)
    t.lbr
    Fmt.(
      list ~sep:cut (fun ppf (e : log_entry) ->
          Fmt.pf ppf "t%d %s=%d" e.log_tid e.log_tag e.log_value))
    t.logs
