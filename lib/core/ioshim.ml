(** The injectable I/O fault plane.

    Every persistence module (the daemon's spool, the result cache)
    routes its disk traffic through this thin shim instead of
    calling {!Res_vm.Coredump_io} directly.  In production the shim is
    transparent: {!write_file_atomic} is the journal-then-rename writer
    (and {!recover_dir} the recovery of its journals), {!read_file} is
    exactly the hardened reader.  Under test,
    {!with_injector} installs a decision function that can make any
    individual operation fail the way a hostile disk fails — ENOSPC
    mid-write, EIO on read, a failed fsync, a torn write that leaves a
    half-journal behind — so the fault-injection campaigns can prove
    that every persistence path degrades (quarantine, recompute, retry)
    instead of serving wrong bytes or losing accepted work.

    Injected write faults deliberately leave a torn [.tmp] journal on
    disk, exactly like a writer killed mid-[write(2)]: recovery code
    must delete or refuse it, and the campaigns assert that it does.

    The injector is process-global state (forked workers inherit it,
    which is what the campaigns want); it is not synchronized across
    domains — install it only from a single-domain test harness. *)

module Io = Res_vm.Coredump_io

(** The operations a persistence path performs, as injection points. *)
type op =
  | Write  (** writing the journal file's bytes *)
  | Fsync  (** flushing the journal to stable storage before rename *)
  | Rename  (** publishing the journal over the destination *)
  | Fsync_dir  (** flushing the directory entry after rename *)
  | Read  (** reading a file back *)
  | Mkdir  (** creating a persistence directory *)

(** How an injected operation fails. *)
type fault =
  | Enospc  (** disk full: half the bytes land, then ENOSPC *)
  | Eio  (** the operation fails outright with EIO *)
  | Fsync_fail  (** fsync reports failure; the write cannot be trusted *)
  | Torn of int  (** exactly [n] bytes land, then the writer dies (EIO) *)

let fault_name = function
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Fsync_fail -> "fsync-fail"
  | Torn n -> Printf.sprintf "torn-%d" n

(** Decide whether (and how) this operation on this path fails.  Return
    [None] to let it through. *)
type injector = op -> string -> fault option

let no_faults : injector = fun _ _ -> None
let injector : injector ref = ref no_faults

(** Install [f] for the duration of [thunk] (restored on any exit). *)
let with_injector f thunk =
  let prev = !injector in
  injector := f;
  Fun.protect ~finally:(fun () -> injector := prev) thunk

let check op path = !injector op path

(* Leave a torn journal behind, like a writer that died mid-write, then
   surface the failure as the Unix error a real disk returns. *)
let fail_torn ~tmp ~contents ~keep code =
  let oc = open_out_bin tmp in
  output_string oc (String.sub contents 0 (min keep (String.length contents)));
  close_out_noerr oc;
  raise (Unix.Unix_error (code, "write", tmp))

(** Write [contents] to [path] atomically: write a fresh
    [path.<pid>.<n>.tmp] journal ({!Res_vm.Coredump_io.fresh_tmp_path})
    in full, fsync it, rename it over [path], then fsync the parent
    directory — durable against power loss, not just process death.  A
    crash mid-write leaves at worst a stale journal, which
    {!recover_journal_with} promotes or deletes; never a torn
    destination.  Journal names are unique per process and call, so
    concurrent writers in one directory never collide.

    Every stage is an injection point: journal write, fsync, rename,
    directory fsync.  A fault raises [Unix.Unix_error] (after leaving a
    realistic torn journal for write-stage faults); callers treat any
    exception as "this write did not happen" and fall back to their
    degrade path. *)
let write_file_atomic path contents =
  let tmp = Io.fresh_tmp_path path in
  (match check Write path with
  | Some Enospc ->
      fail_torn ~tmp ~contents ~keep:(String.length contents / 2) Unix.ENOSPC
  | Some (Torn n) -> fail_torn ~tmp ~contents ~keep:n Unix.EIO
  | Some (Eio | Fsync_fail) -> raise (Unix.Unix_error (Unix.EIO, "write", tmp))
  | None -> ());
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc contents;
     flush oc;
     match check Fsync path with
     | Some _ ->
         (* the journal is fully written but may not be durable: the
            write cannot be acknowledged *)
         raise (Unix.Unix_error (Unix.EIO, "fsync", tmp))
     | None -> ( try Unix.fsync fd with Unix.Unix_error _ -> ())
   with exn ->
     close_out_noerr oc;
     raise exn);
  close_out oc;
  (match check Rename path with
  | Some _ -> raise (Unix.Unix_error (Unix.EIO, "rename", tmp))
  | None -> ());
  Sys.rename tmp path;
  match check Fsync_dir path with
  | Some _ -> () (* a failed directory fsync is tolerated, like the real one *)
  | None -> Io.fsync_dir (Filename.dirname path)

(** {!Res_vm.Coredump_io.read_file} with a read injection point: an
    injected fault reads as an unreadable file (the classified error
    every loader already degrades on), not an exception. *)
let read_file path =
  match check Read path with
  | Some f ->
      Error
        (Io.Unreadable
           (Printf.sprintf "%s: injected %s fault" path (fault_name f)))
  | None -> Io.read_file path

(** Journal recovery for the atomic writer's intermediate states, the
    [path.<pid>.<n>.tmp] siblings (plus the legacy [path.tmp]): a valid
    one ([valid src]) is a completed write that died before its rename —
    promote it; an invalid one is a torn write — delete it.  Siblings are
    scanned in sorted order (deterministic), so with several valid
    journals the lexicographically last wins.  Idempotent. *)
let recover_journal_with ~valid path =
  List.iter
    (fun tmp ->
      match read_file tmp with
      | Error _ -> ()
      | Ok src ->
          if valid src then (try Sys.rename tmp path with Sys_error _ -> ())
          else try Sys.remove tmp with Sys_error _ -> ())
    (Io.journal_siblings path)

(** Directory-wide journal recovery: map every [.tmp] entry back to its
    destination by stripping the [.<pid>.<n>] journal suffix (or the
    legacy bare [.tmp]), then promote-or-delete each with the
    destination's own validator [valid_for dest].  The request spool and
    the result cache boot through this. *)
let recover_dir ~valid_for dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      let dests = Hashtbl.create 8 in
      Array.iter
        (fun e ->
          if Filename.check_suffix e ".tmp" then begin
            let stem = Filename.chop_suffix e ".tmp" in
            let num s i =
              int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
              <> None
            in
            let stem =
              match String.rindex_opt stem '.' with
              | Some i when num stem i -> (
                  let stem2 = String.sub stem 0 i in
                  match String.rindex_opt stem2 '.' with
                  | Some j when num stem2 j -> String.sub stem2 0 j
                  | _ -> stem)
              | _ -> stem
            in
            Hashtbl.replace dests (Filename.concat dir stem) ()
          end)
        entries;
      Hashtbl.iter
        (fun dest () -> recover_journal_with ~valid:(valid_for dest) dest)
        dests

(** Create [dir] if needed and — unlike a bare [Unix.mkdir] — fsync its
    parent, so the directory itself survives a power loss.  Every
    persistence directory is created through here. *)
let mkdir_durable dir =
  (match check Mkdir dir with
  | Some Enospc -> raise (Unix.Unix_error (Unix.ENOSPC, "mkdir", dir))
  | Some _ -> raise (Unix.Unix_error (Unix.EIO, "mkdir", dir))
  | None -> ());
  match Unix.mkdir dir 0o755 with
  | () -> Io.fsync_dir (Filename.dirname dir)
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
