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
  lbr : branch list;  (** most recent first, length <= [lbr_depth] *)
  logs : log_entry list;  (** most recent first, unbounded *)
}

(** [create ~lbr_depth] — Intel LBR keeps 16 entries; the depth is
    configurable for the E6 search-space experiment. *)
val create : lbr_depth:int -> t

val record_branch :
  t -> tid:int -> func:string -> from_label:Res_ir.Instr.label ->
  to_label:Res_ir.Instr.label -> t

val record_log : t -> tid:int -> tag:string -> value:int -> t

(** [append earlier later] is the tracer of one run that recorded
    [earlier]'s entries and then [later]'s, where [later] started empty at
    its own depth: the newest [lbr_depth] branches of both and every log
    entry, most recent first. *)
val append : t -> t -> t

(** Branches, most recent first. *)
val branches : t -> branch list

(** Log entries, most recent first. *)
val logs : t -> log_entry list

val pp_branch : Format.formatter -> branch -> unit
val pp : Format.formatter -> t -> unit
