(** The coordinator's durable result journal: crash-only, like the node
    spool, but keyed by {e unit identity} (the dump's corpus name)
    rather than by request id — a restarted coordinator re-derives the
    corpus deterministically and must recognize which units are already
    answered, whichever incarnation answered them.

    One file per applied unit, [u<index>.row], holding the node's [Row]
    reply frame verbatim (the same "journal the wire format" trick as
    the spool: recovery needs no third format).  Files are written with
    {!Res_core.Ioshim.write_file_atomic} {e before} the row is
    applied in memory, so at-most-once application survives a SIGKILL
    between the two: the reborn coordinator reads the row back instead
    of re-running the unit.  A [.tmp] journal left by a killed writer is
    promoted if its seal validates, deleted otherwise. *)

module Io = Res_vm.Coredump_io
module P = Res_serve.Protocol

type t = { dir : string }

let path t index = Filename.concat t.dir (Fmt.str "u%04d.row" index)

let valid src = Res_core.Sealing.valid ~header:P.rep_header src

(** Open (and recover) a journal directory, creating it durably (parent
    fsynced via the I/O shim) if needed. *)
let openr dir =
  Res_core.Ioshim.mkdir_durable dir;
  Res_core.Ioshim.recover_dir dir ~valid_for:(fun _ -> valid);
  { dir }

(** Durably record a unit's applied [Row] frame.  Once this returns, a
    coordinator crash cannot lose or re-run the unit. *)
let append t ~index ~frame =
  Res_core.Ioshim.write_file_atomic (path t index) frame

(** How many units have journaled rows (what soak harnesses poll to time
    their kills). *)
let count dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun acc e -> if Filename.check_suffix e ".row" then acc + 1 else acc)
        0 entries

(** Every journaled row as [(unit name, Row frame)].  Rows that no
    longer decode (on-disk damage beyond the seal) are skipped — the
    unit will simply be re-run, which is always safe. *)
let recovered_rows t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter (fun e -> Filename.check_suffix e ".row")
      |> List.sort compare
      |> List.filter_map (fun e ->
             match Res_core.Ioshim.read_file (Filename.concat t.dir e) with
             | Error _ -> None
             | Ok frame -> (
                 match P.decode_reply frame with
                 | Ok (P.Row { rw_name; _ }) -> Some (rw_name, frame)
                 | _ -> None))
