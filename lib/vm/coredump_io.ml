(** Textual (de)serialization of coredumps, hardened for hostile inputs.

    Production systems ship coredumps as files; this module gives MiniVM
    dumps a stable, human-readable on-disk format so the CLI can separate
    "run and capture" from "analyze".  The format is line-oriented; string
    payloads (assert/abort messages, log tags) are quoted with OCaml
    escapes.  [of_string (to_string d)] round-trips exactly.

    Because the dump is the {e evidence} RES works from — and may itself be
    truncated, bit-flipped, or half-written (paper §3.2 treats corrupted
    state as a first-class input) — v2 of the format wraps the records in a
    validating envelope: a version header plus an [end <lines> <checksum>]
    footer (FNV-1a over the payload).  {!of_string_result} classifies bad
    inputs into a structured {!dump_error} instead of throwing, and its
    salvage mode recovers the intact prefix of a damaged dump so triage can
    still run on partial evidence.  v1 dumps (no footer) remain readable. *)

module IMap = Map.Make (Int)

(* Record writers append straight to a [Buffer]: one space before each
   word, never a line break inside a record, no [Format] engine.  The
   [pp_*] printers other formats embed (checkpoints) are the same
   writers, so a value renders identically everywhere. *)

let add_word b s =
  Buffer.add_char b ' ';
  Buffer.add_string b s

let add_int b i = add_word b (string_of_int i)

let add_quoted b s =
  Buffer.add_string b " \"";
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let add_pc b (pc : Res_ir.Pc.t) =
  add_word b pc.func;
  add_word b pc.block;
  add_int b pc.idx

let add_kind b (k : Crash.kind) =
  match k with
  | Crash.Seg_fault a -> add_word b "seg_fault"; add_int b a
  | Crash.Out_of_bounds { addr; base; size } ->
      add_word b "out_of_bounds"; add_int b addr; add_int b base; add_int b size
  | Crash.Use_after_free { addr; base } ->
      add_word b "use_after_free"; add_int b addr; add_int b base
  | Crash.Double_free a -> add_word b "double_free"; add_int b a
  | Crash.Invalid_free a -> add_word b "invalid_free"; add_int b a
  | Crash.Global_overflow { addr; global } ->
      add_word b "global_overflow"; add_int b addr; add_word b global
  | Crash.Div_by_zero -> add_word b "div_by_zero"
  | Crash.Assert_fail m -> add_word b "assert_fail"; add_quoted b m
  | Crash.Abort_called m -> add_word b "abort_called"; add_quoted b m
  | Crash.Unlock_error a -> add_word b "unlock_error"; add_int b a
  | Crash.Deadlock tids -> add_word b "deadlock"; List.iter (add_int b) tids
  | Crash.Alloc_error n -> add_word b "alloc_error"; add_int b n

let add_status b = function
  | Thread.Runnable -> add_word b "runnable"
  | Thread.Blocked_on_lock a -> add_word b "blocked_on_lock"; add_int b a
  | Thread.Blocked_on_join t -> add_word b "blocked_on_join"; add_int b t
  | Thread.Halted -> add_word b "halted"

let add_site b = function None -> add_word b "none" | Some pc -> add_pc b pc

(* A writer as a printer: the words without their leading space. *)
let pp_of add ppf x =
  let b = Buffer.create 64 in
  add b x;
  Fmt.string ppf (Buffer.sub b 1 (Buffer.length b - 1))

let pp_pc = pp_of add_pc
let pp_kind = pp_of add_kind
let pp_status = pp_of add_status
let pp_site = pp_of add_site

(* --- envelope: header, line count, checksum --- *)

(** 32-bit FNV-1a over a string — cheap, deterministic, and plenty to catch
    the single-bit and truncation corruption we defend against.  Shared by
    every checksummed on-disk format (coredumps, search checkpoints). *)
let fnv1a32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(** Append the validating [end <lines> <checksum>] footer to a payload
    (which must end in a newline). *)
let seal payload =
  payload ^ Printf.sprintf "end %d %d\n" (count_lines payload) (fnv1a32 payload)

(** Serialize a coredump to its textual format (v2: checksummed), one
    record per line.  The buffer starts small enough for the minor heap
    (a 4 KiB one would be allocated in the major heap on every call) and
    grows for big dumps. *)
let to_string (d : Coredump.t) =
  let b = Buffer.create 512 in
  let record kw = Buffer.add_string b kw in
  let eol () = Buffer.add_char b '\n' in
  record "coredump v2";
  eol ();
  record "steps";
  add_int b d.Coredump.steps;
  eol ();
  let c = d.Coredump.crash in
  record "crash";
  add_int b c.Crash.tid;
  add_pc b c.Crash.pc;
  add_kind b c.Crash.kind;
  eol ();
  List.iter
    (fun (a, v) ->
      record "mem";
      add_int b a;
      add_int b v;
      eol ())
    (Res_mem.Memory.bindings d.Coredump.mem);
  record "heap_next";
  add_int b (Res_mem.Heap.next_addr d.Coredump.heap);
  eol ();
  List.iter
    (fun (blk : Res_mem.Heap.block) ->
      record "heap_block";
      add_int b blk.base;
      add_int b blk.size;
      add_word b
        (match blk.state with Res_mem.Heap.Live -> "live" | Res_mem.Heap.Freed -> "freed");
      add_site b blk.alloc_site;
      add_site b blk.free_site;
      eol ())
    (Res_mem.Heap.blocks d.Coredump.heap);
  List.iter
    (fun (th : Thread.t) ->
      record "thread";
      add_int b th.tid;
      add_status b th.status;
      eol ();
      List.iter
        (fun (fr : Frame.t) ->
          record "frame";
          add_word b fr.func;
          add_word b fr.block;
          add_int b fr.idx;
          add_word b
            (match fr.ret_reg with Some r -> string_of_int r | None -> "none");
          eol ();
          List.iter
            (fun (r, v) ->
              record "reg";
              add_int b r;
              add_int b v;
              eol ())
            (Frame.reg_bindings fr))
        th.frames)
    (Coredump.threads d);
  record "lbr_depth";
  add_int b d.Coredump.tracer.Tracer.lbr_depth;
  eol ();
  List.iter
    (fun (br : Tracer.branch) ->
      record "branch";
      add_int b br.br_tid;
      add_word b br.br_func;
      add_word b br.br_from;
      add_word b br.br_to;
      eol ())
    (Tracer.branches d.Coredump.tracer);
  List.iter
    (fun (e : Tracer.log_entry) ->
      record "log";
      add_int b e.log_tid;
      add_quoted b e.log_tag;
      add_int b e.log_value;
      eol ())
    (Tracer.logs d.Coredump.tracer);
  seal (Buffer.contents b)

exception Bad_format of string

(** Why a dump could not be loaded (or had to be salvaged). *)
type dump_error =
  | Empty_dump
  | Bad_header of string  (** first line is not a coredump header *)
  | Truncated of string  (** records or envelope footer missing *)
  | Corrupted of { expected : int; actual : int }  (** checksum mismatch *)
  | Malformed of string  (** a record failed to parse *)
  | Unreadable of string
      (** the file could not be read at all: ["PATH: reason"] *)

let pp_dump_error ppf = function
  | Empty_dump -> Fmt.string ppf "empty coredump"
  | Bad_header l -> Fmt.pf ppf "not a coredump (header %S)" l
  | Truncated what -> Fmt.pf ppf "truncated coredump: %s" what
  | Corrupted { expected; actual } ->
      Fmt.pf ppf "corrupted coredump: checksum %#x, expected %#x" actual expected
  | Malformed msg -> Fmt.pf ppf "malformed coredump: %s" msg
  | Unreadable msg -> Fmt.pf ppf "unreadable coredump: %s" msg

let dump_error_to_string e = Fmt.str "%a" pp_dump_error e

let fail fmt = Fmt.kstr (fun m -> raise (Bad_format m)) fmt

(* Token-level reader built on the MiniIR tokenizer (it already handles
   ints, identifiers, and quoted strings). *)
type reader = { mutable toks : (Res_ir.Parser.token * int) list }

let next rd =
  match rd.toks with
  | [] -> fail "unexpected end of coredump"
  | (t, _) :: rest ->
      rd.toks <- rest;
      t

let peek rd = match rd.toks with [] -> None | (t, _) :: _ -> Some t

let int_tok rd =
  match next rd with
  | Res_ir.Parser.INT n -> n
  | _ -> fail "expected integer"

let ident rd =
  match next rd with
  | Res_ir.Parser.IDENT s -> s
  | _ -> fail "expected identifier"

let string_tok rd =
  match next rd with
  | Res_ir.Parser.STRING s -> s
  | _ -> fail "expected string"

let pc_of rd =
  let func = ident rd in
  let block = ident rd in
  let idx = int_tok rd in
  Res_ir.Pc.v ~func ~block ~idx

let site_of rd =
  match peek rd with
  | Some (Res_ir.Parser.IDENT "none") ->
      ignore (next rd);
      None
  | _ -> Some (pc_of rd)

let kind_of rd : Crash.kind =
  match ident rd with
  | "seg_fault" -> Crash.Seg_fault (int_tok rd)
  | "out_of_bounds" ->
      let addr = int_tok rd in
      let base = int_tok rd in
      let size = int_tok rd in
      Crash.Out_of_bounds { addr; base; size }
  | "use_after_free" ->
      let addr = int_tok rd in
      let base = int_tok rd in
      Crash.Use_after_free { addr; base }
  | "double_free" -> Crash.Double_free (int_tok rd)
  | "invalid_free" -> Crash.Invalid_free (int_tok rd)
  | "global_overflow" ->
      let addr = int_tok rd in
      let global = ident rd in
      Crash.Global_overflow { addr; global }
  | "div_by_zero" -> Crash.Div_by_zero
  | "assert_fail" -> Crash.Assert_fail (string_tok rd)
  | "abort_called" -> Crash.Abort_called (string_tok rd)
  | "unlock_error" -> Crash.Unlock_error (int_tok rd)
  | "deadlock" ->
      let rec ints acc =
        match peek rd with
        | Some (Res_ir.Parser.INT _) -> ints (int_tok rd :: acc)
        | _ -> List.rev acc
      in
      Crash.Deadlock (ints [])
  | "alloc_error" -> Crash.Alloc_error (int_tok rd)
  | s -> fail "unknown crash kind %s" s

let status_of rd =
  match ident rd with
  | "runnable" -> Thread.Runnable
  | "blocked_on_lock" -> Thread.Blocked_on_lock (int_tok rd)
  | "blocked_on_join" -> Thread.Blocked_on_join (int_tok rd)
  | "halted" -> Thread.Halted
  | s -> fail "unknown thread status %s" s

(* --- record-level parser state (shared by strict and salvage paths) --- *)

type pstate = {
  mutable p_steps : int;
  mutable p_crash : Crash.t option;
  mutable p_mem : Res_mem.Memory.t;
  mutable p_heap_next : int;
  mutable p_heap_blocks : Res_mem.Heap.block list;
  mutable p_threads : Thread.t list;
  mutable p_cur_thread : (int * Thread.status) option;
  mutable p_cur_frames : Frame.t list;
  mutable p_cur_frame : Frame.t option;
  mutable p_lbr_depth : int;
  mutable p_branches : Tracer.branch list;
  mutable p_logs : Tracer.log_entry list;
}

let new_pstate () =
  {
    p_steps = 0;
    p_crash = None;
    p_mem = Res_mem.Memory.empty;
    p_heap_next = Res_mem.Layout.heap_base;
    p_heap_blocks = [];
    p_threads = [];
    p_cur_thread = None;
    p_cur_frames = [];
    p_cur_frame = None;
    p_lbr_depth = 16;
    p_branches = [];
    p_logs = [];
  }

let close_frame st =
  match st.p_cur_frame with
  | Some fr ->
      st.p_cur_frames <- (fr : Frame.t) :: st.p_cur_frames;
      st.p_cur_frame <- None
  | None -> ()

let close_thread st =
  close_frame st;
  match st.p_cur_thread with
  | Some (tid, status) ->
      st.p_threads <-
        { Thread.tid; frames = List.rev st.p_cur_frames; status } :: st.p_threads;
      st.p_cur_thread <- None;
      st.p_cur_frames <- []
  | None -> ()

(** Parse exactly one record (the reader is positioned at its keyword). *)
let parse_record st rd =
  match ident rd with
  | "steps" -> st.p_steps <- int_tok rd
  | "crash" ->
      let tid = int_tok rd in
      let pc = pc_of rd in
      let kind = kind_of rd in
      st.p_crash <- Some { Crash.tid; pc; kind }
  | "mem" ->
      let a = int_tok rd in
      let v = int_tok rd in
      st.p_mem <- Res_mem.Memory.write st.p_mem a v
  | "heap_next" -> st.p_heap_next <- int_tok rd
  | "heap_block" ->
      let base = int_tok rd in
      let size = int_tok rd in
      let state =
        match ident rd with
        | "live" -> Res_mem.Heap.Live
        | "freed" -> Res_mem.Heap.Freed
        | s -> fail "unknown heap state %s" s
      in
      let alloc_site = site_of rd in
      let free_site = site_of rd in
      st.p_heap_blocks <-
        { Res_mem.Heap.base; size; state; alloc_site; free_site }
        :: st.p_heap_blocks
  | "thread" ->
      close_thread st;
      let tid = int_tok rd in
      let status = status_of rd in
      st.p_cur_thread <- Some (tid, status)
  | "frame" ->
      close_frame st;
      let func = ident rd in
      let block = ident rd in
      let idx = int_tok rd in
      let ret_reg =
        match next rd with
        | Res_ir.Parser.IDENT "none" -> None
        | Res_ir.Parser.INT r -> Some r
        | _ -> fail "expected return register or none"
      in
      st.p_cur_frame <-
        Some { Frame.func; block; idx; regs = IMap.empty; ret_reg }
  | "reg" -> (
      let r = int_tok rd in
      let v = int_tok rd in
      match st.p_cur_frame with
      | Some fr -> st.p_cur_frame <- Some (Frame.write_reg fr r v)
      | None -> fail "reg outside a frame")
  | "lbr_depth" -> st.p_lbr_depth <- int_tok rd
  | "branch" ->
      let br_tid = int_tok rd in
      let br_func = ident rd in
      let br_from = ident rd in
      let br_to = ident rd in
      st.p_branches <- { Tracer.br_tid; br_func; br_from; br_to } :: st.p_branches
  | "log" ->
      let log_tid = int_tok rd in
      let log_tag = string_tok rd in
      let log_value = int_tok rd in
      st.p_logs <- { Tracer.log_tid; log_tag; log_value } :: st.p_logs
  | "end" ->
      (* envelope footer; validated separately, skipped here *)
      ignore (int_tok rd);
      ignore (int_tok rd)
  | s -> fail "unknown record %s" s

(** Assemble the final dump.  @raise Bad_format when no crash record was
    recovered (there is nothing to analyze without one). *)
let finalize st : Coredump.t =
  close_thread st;
  let crash =
    match st.p_crash with Some c -> c | None -> fail "no crash record"
  in
  let heap = Res_mem.Heap.of_blocks ~next:st.p_heap_next st.p_heap_blocks in
  let tracer =
    {
      Tracer.lbr_depth = st.p_lbr_depth;
      (* branches/logs were serialized most-recent-first and accumulated in
         reverse, so the accumulators are already oldest-first: reverse back *)
      lbr = List.rev st.p_branches;
      logs = List.rev st.p_logs;
    }
  in
  {
    Coredump.crash;
    mem = st.p_mem;
    heap;
    threads =
      List.fold_left
        (fun m (th : Thread.t) -> IMap.add th.Thread.tid th m)
        IMap.empty st.p_threads;
    tracer;
    steps = st.p_steps;
  }

(* --- envelope validation --- *)

let first_line src =
  match String.index_opt src '\n' with
  | Some i -> String.sub src 0 i
  | None -> src

(** Split off the final [end ...] footer line, returning (payload, footer). *)
let split_footer src =
  let len = String.length src in
  (* [seal] always terminates the footer line: a file without the final
     newline is one deleted byte away from what was written, and must be
     detected as truncation, not tolerated *)
  if len = 0 || src.[len - 1] <> '\n' then None
  else
    let end_ = len - 1 in
    if end_ <= 0 then None
    else
      match String.rindex_from_opt src (end_ - 1) '\n' with
      | None -> None
      | Some i ->
          Some (String.sub src 0 (i + 1), String.sub src (i + 1) (end_ - i - 1))

(** Validate a sealed envelope whose first line must satisfy [header]:
    check the [end <lines> <checksum>] footer and return the record payload
    to parse.  Shared by every sealed format ({!seal} is the writer). *)
let validate_sealed ~header src : (string, dump_error) result =
  if String.trim src = "" then Error Empty_dump
  else if not (header (first_line src)) then Error (Bad_header (first_line src))
  else
    match split_footer src with
    | Some (payload, footer) when String.length footer >= 4
                                  && String.sub footer 0 4 = "end " -> (
        match Scanf.sscanf_opt footer "end %d %d" (fun a b -> (a, b)) with
        | None -> Error (Truncated "unparsable end-of-record footer")
        | Some (lines, checksum)
          when not (String.equal footer (Printf.sprintf "end %d %d" lines checksum))
          ->
            (* sscanf ignores trailing bytes, so "end 5 123junk" would
               otherwise validate: require the footer to round-trip *)
            Error (Truncated "trailing bytes in end-of-record footer")
        | Some (lines, checksum) ->
            let actual_lines = count_lines payload in
            if actual_lines <> lines then
              Error
                (Truncated
                   (Fmt.str "%d of %d record lines present" actual_lines lines))
            else
              let actual = fnv1a32 payload in
              if actual <> checksum then
                Error (Corrupted { expected = checksum; actual })
              else Ok payload)
    | _ -> Error (Truncated "missing end-of-record footer")

(** Check header/footer/checksum; returns the record payload to parse. *)
let validate_envelope src : (string, dump_error) result =
  if String.trim src = "" then Error Empty_dump
  else
    match first_line src with
    | "coredump v1" -> Ok src (* legacy: no envelope to check *)
    | "coredump v2" -> validate_sealed ~header:(String.equal "coredump v2") src
    | l -> Error (Bad_header l)

let classify_exn = function
  | Bad_format m -> Malformed m
  | Res_ir.Parser.Parse_error { line; msg } ->
      Malformed (Fmt.str "lexical error at line %d: %s" line msg)
  | exn -> Malformed (Printexc.to_string exn)

(** Strict parse of a validated payload. *)
let parse_strict payload : (Coredump.t, dump_error) result =
  match
    let rd = { toks = Res_ir.Parser.tokenize payload } in
    (match (ident rd, ident rd) with
    | "coredump", ("v1" | "v2") -> ()
    | _ -> fail "missing coredump header");
    let st = new_pstate () in
    let rec loop () =
      match peek rd with
      | None -> ()
      | Some _ ->
          parse_record st rd;
          loop ()
    in
    loop ();
    finalize st
  with
  | dump -> Ok dump
  | exception exn -> Error (classify_exn exn)

(** Best-effort parse: go line by line, keep everything up to the first
    damaged record, and require only that a crash record survived.  This is
    the salvage path for truncated or bit-corrupted dumps — triage can
    still run on the intact prefix. *)
let parse_salvage src : Coredump.t option =
  match first_line src with
  | "coredump v1" | "coredump v2" -> (
      let st = new_pstate () in
      let lines = String.split_on_char '\n' src in
      let lines = match lines with _header :: rest -> rest | [] -> [] in
      (try
         List.iter
           (fun line ->
             if String.trim line <> "" then
               let rd = { toks = Res_ir.Parser.tokenize line } in
               match peek rd with
               | None -> ()
               | Some _ -> parse_record st rd)
           lines
       with _ -> () (* damaged record: keep the prefix parsed so far *));
      match finalize st with
      | dump -> Some dump
      | exception _ -> None)
  | _ -> None

(** What a successful load carries: the dump, plus the damage that was
    worked around when the dump had to be salvaged. *)
type loaded = { dump : Coredump.t; salvaged : dump_error option }

(** Parse a coredump, classifying damage instead of raising.  With
    [~salvage:true], a truncated or corrupted dump is recovered best-effort
    (the error that was overridden is reported in [salvaged]). *)
let of_string_result ?(salvage = false) src : (loaded, dump_error) result =
  let salvage_or err =
    if not salvage then Error err
    else
      match parse_salvage src with
      | Some dump -> Ok { dump; salvaged = Some err }
      | None -> Error err
  in
  match validate_envelope src with
  | Error err -> salvage_or err
  | Ok payload -> (
      match parse_strict payload with
      | Ok dump -> Ok { dump; salvaged = None }
      | Error err -> salvage_or err)

(** Parse a coredump from its textual format.
    @raise Bad_format on malformed input. *)
let of_string src : Coredump.t =
  match of_string_result src with
  | Ok { dump; _ } -> dump
  | Error err -> raise (Bad_format (dump_error_to_string err))

(* Temp names carry the writer's PID plus a process-local counter so
   concurrent workers (forked processes or domains) writing into one
   directory never open the same journal — and a crashed writer's leftover
   can never be renamed over a *different* destination by a concurrent
   writer's rename, because no two writers ever share a temp name. *)
let tmp_seq = Atomic.make 0

(** The journal name the next atomic write to [path] would use: unique per
    (process, call).  Exposed so fault-injection can place a deliberately
    torn journal exactly where a killed writer would have left one. *)
let fresh_tmp_path path =
  Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

(** All journal siblings of [path] on disk, sorted: files named
    [path.<pid>.<n>.tmp] (current writers) plus the legacy [path.tmp]
    (pre-PID format).  These are the only intermediate states the atomic
    writer can leave behind. *)
let journal_siblings path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let prefix = base ^ "." in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter (fun e ->
             String.length e > String.length prefix
             && String.equal (String.sub e 0 (String.length prefix)) prefix
             && Filename.check_suffix e ".tmp")
      |> List.sort compare
      |> List.map (Filename.concat dir)

(* Flush the directory entry for a just-renamed file to stable storage.
   Without this the rename is durable only against process death: after a
   power loss the directory block may still hold the old entry.  Some
   filesystems refuse fsync on a directory fd (EINVAL/EBADF/EACCES) — in
   that case process-death atomicity is the best available and we keep
   going rather than fail a write that already succeeded. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Unreadable msg)
  | ic ->
      let finally () = close_in_noerr ic in
      Fun.protect ~finally (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception End_of_file ->
              Error (Unreadable (path ^ ": file shrank while reading"))
          | exception Sys_error msg ->
              (* Opening a directory succeeds, and reading its length
                 fails with an unrelated EOVERFLOW: name the cause. *)
              let why =
                if try Sys.is_directory path with Sys_error _ -> false then
                  "Is a directory"
                else msg
              in
              Error (Unreadable (path ^ ": " ^ why)))

(** Load a coredump from [path], classifying damage instead of raising. *)
let load_result ?salvage path : (loaded, dump_error) result =
  match read_file path with
  | Error err -> Error err
  | Ok s -> of_string_result ?salvage s

(** Load a coredump from [path].
    @raise Bad_format on any failure (including unreadable files). *)
let load path =
  match load_result path with
  | Ok { dump; _ } -> dump
  | Error err -> raise (Bad_format (dump_error_to_string err))
