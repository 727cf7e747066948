(** The daemon's durable request spool: crash-only bookkeeping.

    An accepted request exists as [<id>.req] (the submit frame's sealed
    payload, verbatim) in the spool directory {e before} the [Accepted]
    reply is sent; a finished request additionally has [<id>.res] (the
    [Result] reply's sealed payload, verbatim).  Both are written with
    {!Res_core.Ioshim.write_file_atomic}, which fsyncs the file and
    the directory — so "accepted" means "survives [kill -9] and power
    loss", and recovery after any crash is a directory scan:

    - a [.req] with no [.res] is in-flight work to re-run;
    - a [.req] with a [.res] is done (kept for [fetch] until pruned);
    - a [.tmp] journal is a write that died mid-flight — promoted if its
      seal validates, deleted otherwise (via
      {!Res_core.Ioshim.recover_dir}).

    There is no other daemon state on disk, which is what makes the
    restart path crash-only: the daemon never "shuts down cleanly" as far
    as the spool is concerned; every boot is a recovery. *)

module Io = Res_vm.Coredump_io

type t = { dir : string; mutable next : int }

let id_of n = Fmt.str "r%06d" n

(** Request ids are [r%06d]; accept anything matching so a spool survives
    manual pruning and future id-width changes. *)
let parse_id name =
  if String.length name > 1 && name.[0] = 'r' then
    int_of_string_opt (String.sub name 1 (String.length name - 1))
  else None

let req_path t id = Filename.concat t.dir (id ^ ".req")
let res_path t id = Filename.concat t.dir (id ^ ".res")

let valid_with header src = Res_core.Sealing.valid ~header src

(** Journal recovery across the whole spool: for every [.tmp] sibling,
    derive its destination and promote/delete it by seal validity. *)
let recover_journals dir =
  Res_core.Ioshim.recover_dir dir ~valid_for:(fun dest ->
      valid_with
        (if Filename.check_suffix dest ".res" then Protocol.rep_header
         else Protocol.req_header))

(** Open (and recover) a spool directory, creating it if needed. *)
let openr dir =
  Res_core.Ioshim.mkdir_durable dir;
  recover_journals dir;
  let next =
    match Sys.readdir dir with
    | exception Sys_error _ -> 0
    | entries ->
        Array.fold_left
          (fun acc e ->
            match parse_id (Filename.remove_extension e) with
            | Some n when n >= acc -> n + 1
            | _ -> acc)
          0 entries
  in
  { dir; next }

(** Durably journal an accepted request; returns its fresh id.  Once this
    returns, the request survives any crash of the daemon. *)
let accept t ~frame =
  let id = id_of t.next in
  t.next <- t.next + 1;
  Res_core.Ioshim.write_file_atomic (req_path t id) frame;
  id

(** Durably journal a finished request's [Result] reply payload. *)
let complete t ~id ~frame =
  Res_core.Ioshim.write_file_atomic (res_path t id) frame

let read_request t id = Res_core.Ioshim.read_file (req_path t id)
let read_result t id = Res_core.Ioshim.read_file (res_path t id)

let has_request t id = Sys.file_exists (req_path t id)

(** Accepted-but-unfinished ids ([.req] without [.res]), sorted — the
    work a restarted daemon re-admits. *)
let pending t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if Filename.check_suffix e ".req" then
               let id = Filename.chop_suffix e ".req" in
               if Sys.file_exists (res_path t id) then None else Some id
             else None)
      |> List.sort compare

(** Drop a request's spool entries (used by tests and pruning). *)
let remove t id =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (req_path t id :: res_path t id
    :: (Io.journal_siblings (req_path t id) @ Io.journal_siblings (res_path t id)))
