(* Durable-file tests: journal recovery of the atomic writer's
   intermediate files, atomic coredump saves, and the classified errors
   of reading and loading coredump files.  The invariant under test: a
   write killed at any point leaves either the old file or the new one,
   and never a torn file that a reader would trust. *)

module Io = Res_vm.Coredump_io

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let write p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)
let read p = In_channel.with_open_bin p In_channel.input_all

(* A sealed coredump, its envelope's header, and a scratch directory
   that is removed with whatever a test left in it. *)
let sealed_dump () =
  Io.to_string
    (Res_workloads.Truth.coredump (Res_workloads.Workloads.find "use-after-free-a"))

let valid = Res_core.Sealing.valid ~header:"coredump v2"

let with_dir f =
  let dir = Filename.temp_dir "res-journal" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* --- journal recovery of the atomic writer's .tmp siblings --- *)

(* A complete write that died before its rename: only the journal exists,
   as the writer's [path.<pid>.<n>.tmp] or as the legacy bare
   [path.tmp].  Recovery promotes it over [path]. *)
let test_journal_promotes_completed_write () =
  let text = sealed_dump () in
  with_dir @@ fun dir ->
  List.iter
    (fun (what, journal_of) ->
      let path = Filename.concat dir (what ^ ".core") in
      let journal = journal_of path in
      write journal text;
      Res_core.Ioshim.recover_journal_with ~valid path;
      check bool_t (what ^ ": journal consumed") false (Sys.file_exists journal);
      check string_t (what ^ ": journal promoted to path") text (read path);
      match Io.load_result path with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s: promoted journal should load: %s" what
            (Io.dump_error_to_string e))
    [ ("writer", Io.fresh_tmp_path); ("legacy", fun p -> p ^ ".tmp") ]

(* A good file, then torn half-written journals of both shapes next to
   it: recovery deletes them and leaves the good file as it was. *)
let test_journal_discards_torn_write () =
  let text = sealed_dump () in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "torn.core" in
  Res_core.Ioshim.write_file_atomic path text;
  let torn = String.sub text 0 (String.length text / 3) in
  let journals = [ Io.fresh_tmp_path path; path ^ ".tmp" ] in
  List.iter (fun j -> write j torn) journals;
  check bool_t "both journals are siblings" true
    (List.sort compare journals = Io.journal_siblings path);
  Res_core.Ioshim.recover_journal_with ~valid path;
  check bool_t "torn journals deleted" true (Io.journal_siblings path = []);
  check string_t "good file survives the torn journals" text (read path)

(* --- atomic coredump save --- *)

let test_coredump_save_atomic () =
  let w = Res_workloads.Workloads.find "div-by-zero" in
  let dump = Res_workloads.Truth.coredump w in
  let path = "atomic-dump.core" in
  Res_core.Ioshim.write_file_atomic path (Io.to_string dump);
  check bool_t "no .tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
  (match Io.load_result path with
  | Ok { Io.dump = loaded; _ } ->
      check string_t "saved dump round-trips" (Io.to_string dump)
        (Io.to_string loaded)
  | Error e ->
      Alcotest.failf "saved dump should load: %s" (Io.dump_error_to_string e));
  Sys.remove path

(* A directory is unreadable, and the error names it as a directory. *)
let test_read_file_directory () =
  let dir = Filename.temp_dir "res-read" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Io.read_file dir with
      | Error (Io.Unreadable msg) ->
          check string_t "message" (dir ^ ": Is a directory") msg
      | Ok _ -> Alcotest.fail "a directory read as a file"
      | Error e -> Alcotest.failf "not unreadable: %s" (Io.dump_error_to_string e))

(* A missing file is unreadable, and the error names the path and the
   cause. *)
let test_read_file_missing () =
  let dir = Filename.temp_dir "res-read" "" in
  let path = Filename.concat dir "no-such.core" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Io.read_file path with
      | Error (Io.Unreadable msg) ->
          check string_t "message" (path ^ ": No such file or directory") msg
      | Ok _ -> Alcotest.fail "a missing file read"
      | Error e -> Alcotest.failf "not unreadable: %s" (Io.dump_error_to_string e))

(* A pipe read through its [/dev/fd/N] name (what a shell's process
   substitution passes) is read to its end, though [fstat] gives it no
   size: a sealed dump loads from it, a payload of several pipe buffers
   written while it is read arrives whole, and a closed empty pipe reads
   as no bytes. *)
let test_read_file_pipe () =
  (* [feed] writes into the pipe and closes it, or has a domain do it *)
  let through_pipe feed =
    let r, w = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () ->
        let writer = feed w in
        (* a file descriptor is its number on Unix *)
        let got = Io.read_file (Printf.sprintf "/dev/fd/%d" (Obj.magic r : int)) in
        Option.iter Domain.join writer;
        got)
  in
  let write_all text w =
    let b = Bytes.unsafe_of_string text in
    let rec go off =
      if off < Bytes.length b then go (off + Unix.write w b off (Bytes.length b - off))
    in
    go 0;
    Unix.close w
  in
  let text = sealed_dump () in
  (match through_pipe (fun w -> write_all text w; None) with
  | Ok got -> (
      check string_t "a dump read from a pipe" text got;
      match Io.of_string_result got with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "piped dump: %s" (Io.dump_error_to_string e))
  | Error e -> Alcotest.failf "pipe: %s" (Io.dump_error_to_string e));
  let big = String.init 300_000 (fun i -> Char.chr (i mod 251)) in
  (match through_pipe (fun w -> Some (Domain.spawn (fun () -> write_all big w))) with
  | Ok got -> check bool_t "several pipe buffers read whole" true (String.equal big got)
  | Error e -> Alcotest.failf "pipe: %s" (Io.dump_error_to_string e));
  check bool_t "an empty pipe reads as no bytes" true
    (through_pipe (fun w -> Unix.close w; None) = Ok "")

(* An empty file reads as no bytes and loads as [Empty_dump]; a v1 dump,
   which has no footer, still loads, to the dump its v2 text holds. *)
let test_load_empty_and_v1 () =
  let dir = Filename.temp_dir "res-read" "" in
  let empty = Filename.concat dir "empty.core" and v1 = Filename.concat dir "v1.core" in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ empty; v1 ];
      Sys.rmdir dir)
    (fun () ->
      write empty "";
      check bool_t "empty file reads as no bytes" true (Io.read_file empty = Ok "");
      (match Io.load_result empty with
      | Error Io.Empty_dump -> ()
      | Ok _ -> Alcotest.fail "an empty file loaded"
      | Error e -> Alcotest.failf "empty file: %s" (Io.dump_error_to_string e));
      let dump =
        Res_workloads.Truth.coredump (Res_workloads.Workloads.find "counter-race")
      in
      let v2 = Io.to_string dump in
      (* the v1 text: the v2 records under a v1 header, no footer *)
      let records = String.sub v2 0 (String.rindex_from v2 (String.length v2 - 2) '\n' + 1) in
      write v1 ("coredump v1" ^ String.sub records 11 (String.length records - 11));
      match Io.load_result v1 with
      | Ok { Io.dump = loaded; salvaged = None } ->
          check string_t "v1 dump loads" v2 (Io.to_string loaded)
      | Ok _ -> Alcotest.fail "a v1 dump needed salvage"
      | Error e -> Alcotest.failf "v1 dump: %s" (Io.dump_error_to_string e))

let () =
  Alcotest.run "persist"
    [
      (* The group keeps its historical name, so its test ids stay stable. *)
      ( "checkpoint",
        [
          Alcotest.test_case "journal promotes completed write" `Quick
            test_journal_promotes_completed_write;
          Alcotest.test_case "journal discards torn write" `Quick
            test_journal_discards_torn_write;
          Alcotest.test_case "directory read names it" `Quick
            test_read_file_directory;
          Alcotest.test_case "missing file read names it" `Quick
            test_read_file_missing;
          Alcotest.test_case "pipe read to its end" `Quick test_read_file_pipe;
          Alcotest.test_case "empty file and v1 dump load" `Quick
            test_load_empty_and_v1;
          Alcotest.test_case "coredump save is atomic" `Quick
            test_coredump_save_atomic;
        ] );
    ]
