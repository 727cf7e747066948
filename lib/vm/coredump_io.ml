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
    still run on partial evidence.  v1 dumps (no footer) remain readable.

    The codec makes one pass over a dump's bytes in each direction: the
    envelope is checked in place (checksum and line count in one loop, the
    footer parsed by hand), the records are read from a cursor that lexes
    one token on demand, and the writer renders integers and the footer
    into one buffer. *)

module IMap = Map.Make (Int)

(* --- the writer: a growable byte buffer --- *)

(* Not a [Buffer]: the footer's checksum reads the written bytes in
   place, and the result is their one copy. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

let writer n = { buf = Bytes.create n; len = 0 }

let grow w n =
  let buf = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
  Bytes.blit w.buf 0 buf 0 w.len;
  w.buf <- buf

let[@inline] reserve w n = if w.len + n > Bytes.length w.buf then grow w n

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* [i] in decimal, as [string_of_int] writes it, without the string:
   the digits are written last to first, from the value negated, so
   [min_int] needs no special case. *)
let add_decimal w i =
  let neg = if i < 0 then i else -i in
  let digits = ref 1 and n = ref neg in
  while !n <= -10 do
    incr digits;
    n := !n / 10
  done;
  let len = if i < 0 then !digits + 1 else !digits in
  reserve w len;
  if i < 0 then Bytes.unsafe_set w.buf w.len '-';
  let n = ref neg in
  for k = w.len + len - 1 downto w.len + len - !digits do
    Bytes.unsafe_set w.buf k (Char.unsafe_chr (48 - (!n mod 10)));
    n := !n / 10
  done;
  w.len <- w.len + len

let contents w = Bytes.sub_string w.buf 0 w.len

(* Record writers append straight to the writer: one space before each
   word, never a line break inside a record, no [Format] engine. *)

let add_word w s =
  add_char w ' ';
  add_string w s

let add_int w i =
  add_char w ' ';
  add_decimal w i

let add_quoted w s =
  add_string w " \"";
  add_string w (String.escaped s);
  add_char w '"'

let add_pc w (pc : Res_ir.Pc.t) =
  add_word w pc.func;
  add_word w pc.block;
  add_int w pc.idx

let add_kind w (k : Crash.kind) =
  match k with
  | Crash.Seg_fault a -> add_word w "seg_fault"; add_int w a
  | Crash.Out_of_bounds { addr; base; size } ->
      add_word w "out_of_bounds"; add_int w addr; add_int w base; add_int w size
  | Crash.Use_after_free { addr; base } ->
      add_word w "use_after_free"; add_int w addr; add_int w base
  | Crash.Double_free a -> add_word w "double_free"; add_int w a
  | Crash.Invalid_free a -> add_word w "invalid_free"; add_int w a
  | Crash.Global_overflow { addr; global } ->
      add_word w "global_overflow"; add_int w addr; add_word w global
  | Crash.Div_by_zero -> add_word w "div_by_zero"
  | Crash.Assert_fail m -> add_word w "assert_fail"; add_quoted w m
  | Crash.Abort_called m -> add_word w "abort_called"; add_quoted w m
  | Crash.Unlock_error a -> add_word w "unlock_error"; add_int w a
  | Crash.Deadlock tids -> add_word w "deadlock"; List.iter (add_int w) tids
  | Crash.Alloc_error n -> add_word w "alloc_error"; add_int w n

let add_status w = function
  | Thread.Runnable -> add_word w "runnable"
  | Thread.Blocked_on_lock a -> add_word w "blocked_on_lock"; add_int w a
  | Thread.Blocked_on_join t -> add_word w "blocked_on_join"; add_int w t
  | Thread.Halted -> add_word w "halted"

let add_site w = function None -> add_word w "none" | Some pc -> add_pc w pc

(* --- envelope: header, line count, checksum --- *)

(* 32-bit FNV-1a and the newline count of [s.[0 .. len - 1]], in one
   loop.  The low 32 bits of a product depend only on the low 32 bits of
   its factors, so the hash is masked once, at the end. *)
let fnv_and_lines s len =
  let h = ref 0x811c9dc5 and lines = ref 0 in
  for i = 0 to len - 1 do
    let c = Bytes.unsafe_get s i in
    h := (!h lxor Char.code c) * 0x01000193;
    lines := !lines + Bool.to_int (c = '\n')
  done;
  (!h land 0xFFFFFFFF, !lines)

(** 32-bit FNV-1a over a string — cheap, deterministic, and plenty to catch
    the single-bit and truncation corruption we defend against.  Shared by
    every sealed format ({!seal}). *)
let fnv1a32 s = fst (fnv_and_lines (Bytes.unsafe_of_string s) (String.length s))

let count_lines s =
  snd (fnv_and_lines (Bytes.unsafe_of_string s) (String.length s))

(* The footer [end <lines> <checksum>\n] for the payload [w] holds,
   appended to it. *)
let add_footer w =
  let h, lines = fnv_and_lines w.buf w.len in
  add_string w "end ";
  add_decimal w lines;
  add_char w ' ';
  add_decimal w h;
  add_char w '\n'

(** Append the validating [end <lines> <checksum>] footer to a payload
    (which must end in a newline). *)
let seal payload =
  let w = writer (String.length payload + 32) in
  add_string w payload;
  add_footer w;
  contents w

(** Serialize a coredump to its textual format (v2: checksummed), one
    record per line.  The buffer starts small enough for the minor heap
    (a 4 KiB one would be allocated in the major heap on every call) and
    grows for big dumps. *)
let to_string (d : Coredump.t) =
  let w = writer 512 in
  let record kw = add_string w kw in
  let eol () = add_char w '\n' in
  record "coredump v2";
  eol ();
  record "steps";
  add_int w d.Coredump.steps;
  eol ();
  let c = d.Coredump.crash in
  record "crash";
  add_int w c.Crash.tid;
  add_pc w c.Crash.pc;
  add_kind w c.Crash.kind;
  eol ();
  Res_mem.Memory.fold
    (fun a v () ->
      record "mem";
      add_int w a;
      add_int w v;
      eol ())
    d.Coredump.mem ();
  record "heap_next";
  add_int w (Res_mem.Heap.next_addr d.Coredump.heap);
  eol ();
  List.iter
    (fun (blk : Res_mem.Heap.block) ->
      record "heap_block";
      add_int w blk.base;
      add_int w blk.size;
      add_word w
        (match blk.state with Res_mem.Heap.Live -> "live" | Res_mem.Heap.Freed -> "freed");
      add_site w blk.alloc_site;
      add_site w blk.free_site;
      eol ())
    (Res_mem.Heap.blocks d.Coredump.heap);
  IMap.iter
    (fun _ (th : Thread.t) ->
      record "thread";
      add_int w th.tid;
      add_status w th.status;
      eol ();
      List.iter
        (fun (fr : Frame.t) ->
          record "frame";
          add_word w fr.func;
          add_word w fr.block;
          add_int w fr.idx;
          (match fr.ret_reg with
          | Some r -> add_int w r
          | None -> add_word w "none");
          eol ();
          IMap.iter
            (fun r v ->
              record "reg";
              add_int w r;
              add_int w v;
              eol ())
            fr.regs)
        th.frames)
    d.Coredump.threads;
  record "lbr_depth";
  add_int w d.Coredump.tracer.Tracer.lbr_depth;
  eol ();
  List.iter
    (fun (br : Tracer.branch) ->
      record "branch";
      add_int w br.br_tid;
      add_word w br.br_func;
      add_word w br.br_from;
      add_word w br.br_to;
      eol ())
    (Tracer.branches d.Coredump.tracer);
  List.iter
    (fun (e : Tracer.log_entry) ->
      record "log";
      add_int w e.log_tid;
      add_quoted w e.log_tag;
      add_int w e.log_value;
      eol ())
    (Tracer.logs d.Coredump.tracer);
  add_footer w;
  contents w

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

(* --- the reader: a token cursor over a payload --- *)

(* Tokens come from the MiniIR lexer (ints, identifiers, quoted strings),
   one at a time, through a {!Res_ir.Parser.cursor}. *)
let peek = Res_ir.Parser.peek

let next rd =
  match peek rd with
  | Res_ir.Parser.EOF -> fail "unexpected end of coredump"
  | t ->
      Res_ir.Parser.junk rd;
      t

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
  | Res_ir.Parser.IDENT "none" ->
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
        | Res_ir.Parser.INT _ -> ints (int_tok rd :: acc)
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

(* The open frame: everything but its registers, which accumulate in
   [p_cur_regs] until the frame closes. *)
type pstate = {
  mutable p_steps : int;
  mutable p_crash : Crash.t option;
  mutable p_mem : Res_mem.Memory.t;
  mutable p_heap_next : int;
  mutable p_heap_blocks : Res_mem.Heap.block list;
  mutable p_threads : Thread.t IMap.t;
  mutable p_cur_thread : (int * Thread.status) option;
  mutable p_cur_frames : Frame.t list;
  mutable p_cur_frame : Frame.t option;
  mutable p_cur_regs : int IMap.t;
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
    p_threads = IMap.empty;
    p_cur_thread = None;
    p_cur_frames = [];
    p_cur_frame = None;
    p_cur_regs = IMap.empty;
    p_lbr_depth = 16;
    p_branches = [];
    p_logs = [];
  }

let close_frame st =
  match st.p_cur_frame with
  | Some fr ->
      st.p_cur_frames <- { fr with Frame.regs = st.p_cur_regs } :: st.p_cur_frames;
      st.p_cur_frame <- None;
      st.p_cur_regs <- IMap.empty
  | None -> ()

let close_thread st =
  close_frame st;
  match st.p_cur_thread with
  | Some (tid, status) ->
      (* a tid seen twice keeps its first thread *)
      if not (IMap.mem tid st.p_threads) then
        st.p_threads <-
          IMap.add tid
            { Thread.tid; frames = List.rev st.p_cur_frames; status }
            st.p_threads;
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
      | Some _ -> st.p_cur_regs <- IMap.add r v st.p_cur_regs
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
    threads = st.p_threads;
    tracer;
    steps = st.p_steps;
  }

(* --- envelope validation --- *)

let first_line src =
  match String.index_opt src '\n' with
  | Some i -> String.sub src 0 i
  | None -> src

(* Does [src] hold [s] at [pos]? *)
let has_at src pos s =
  let n = String.length s in
  pos + n <= String.length src
  &&
  let rec from k =
    k = n || (String.unsafe_get src (pos + k) = String.unsafe_get s k && from (k + 1))
  in
  from 0

(* Is [src]'s first line exactly [header]? *)
let header_is header src =
  let n = String.length header in
  has_at src 0 header && (String.length src = n || String.unsafe_get src n = '\n')

(* Is [src.[pos .. lim - 1]] all bytes [String.trim] strips? *)
let is_blank ?(pos = 0) ?lim src =
  let lim = Option.value lim ~default:(String.length src) in
  let rec from i =
    i >= lim
    || (match String.unsafe_get src i with
       | ' ' | '\012' | '\n' | '\r' | '\t' -> from (i + 1)
       | _ -> false)
  in
  from pos

let is_digit c = c >= '0' && c <= '9'

(* The int [string_of_int] writes at [src.[pos]] — an optional '-', then
   digits with no leading zero, no "-0", and in range — as
   [(value, end)]; [None] for any other bytes. *)
let canonical_int src pos lim =
  let neg = pos < lim && String.unsafe_get src pos = '-' in
  let start = if neg then pos + 1 else pos in
  let i = ref start and acc = ref 0 and ok = ref true in
  while !ok && !i < lim && is_digit (String.unsafe_get src !i) do
    let d = Char.code (String.unsafe_get src !i) - 48 in
    if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10))
    then ok := false
    else acc := (!acc * 10) - d;
    incr i
  done;
  let digits = !i - start in
  if (not !ok) || digits = 0
     || (String.unsafe_get src start = '0' && (digits > 1 || neg))
     || ((not neg) && !acc = min_int)
  then None
  else Some ((if neg then !acc else - !acc), !i)

(* Check a sealed envelope whose first line is [header] (already
   checked): the [end <lines> <checksum>] footer, exactly as {!seal}
   writes it, and the payload before it.  The payload's length on
   success; nothing is copied. *)
let check_footer src : (int, dump_error) result =
  let len = String.length src in
  (* [seal] always terminates the footer line: a file without the final
     newline is one deleted byte away from what was written, and must be
     detected as truncation, not tolerated *)
  let footer_at =
    if len < 2 || src.[len - 1] <> '\n' then None
    else String.rindex_from_opt src (len - 2) '\n'
  in
  match footer_at with
  | Some nl when nl + 5 <= len - 1 && has_at src (nl + 1) "end " -> (
      let plen = nl + 1 and stop = len - 1 in
      let fields =
        match canonical_int src (plen + 4) stop with
        | Some (lines, i) when i < stop && src.[i] = ' ' -> (
            match canonical_int src (i + 1) stop with
            | Some (checksum, j) when j = stop -> Ok (lines, checksum)
            | Some _ -> Error "trailing bytes in end-of-record footer"
            | None -> Error "unparsable end-of-record footer")
        | _ -> Error "unparsable end-of-record footer"
      in
      match fields with
      | Error why -> Error (Truncated why)
      | Ok (lines, checksum) ->
          let actual, actual_lines =
            fnv_and_lines (Bytes.unsafe_of_string src) plen
          in
          if actual_lines <> lines then
            Error
              (Truncated
                 (Fmt.str "%d of %d record lines present" actual_lines lines))
          else if actual <> checksum then
            Error (Corrupted { expected = checksum; actual })
          else Ok plen)
  | _ -> Error (Truncated "missing end-of-record footer")

(** Validate a sealed envelope whose first line must be [header]: check
    the [end <lines> <checksum>] footer and return the record payload to
    parse.  Shared by every sealed format ({!seal} is the writer). *)
let validate_sealed ~header src : (string, dump_error) result =
  if is_blank src then Error Empty_dump
  else if not (header_is header src) then Error (Bad_header (first_line src))
  else Result.map (fun plen -> String.sub src 0 plen) (check_footer src)

(* Check a dump's header and envelope; the length of the record payload
   to parse (all of a v1 dump, which has no envelope). *)
let validate_envelope src : (int, dump_error) result =
  if is_blank src then Error Empty_dump
  else if header_is "coredump v2" src then check_footer src
  else if header_is "coredump v1" src then Ok (String.length src)
  else Error (Bad_header (first_line src))

let classify_exn = function
  | Bad_format m -> Malformed m
  | Res_ir.Parser.Parse_error { line; msg } ->
      Malformed (Fmt.str "lexical error at line %d: %s" line msg)
  | exn -> Malformed (Printexc.to_string exn)

(* Strict parse of the validated payload [src.[0 .. plen - 1]]. *)
let parse_strict src plen : (Coredump.t, dump_error) result =
  match
    let rd = Res_ir.Parser.cursor ~lim:plen src in
    let format = ident rd in
    let version = ident rd in
    (match (format, version) with
    | "coredump", ("v1" | "v2") -> ()
    | _ -> fail "missing coredump header");
    let st = new_pstate () in
    let rec records () =
      match peek rd with
      | Res_ir.Parser.EOF -> ()
      | _ ->
          parse_record st rd;
          records ()
    in
    records ();
    finalize st
  with
  | dump -> Ok dump
  | exception exn -> Error (classify_exn exn)

(* Does [src.[pos .. lim - 1]] lex without error? *)
let lexes src ~pos ~lim =
  let lx = Res_ir.Parser.lexer ~pos ~lim src in
  let rec drain () =
    match Res_ir.Parser.lex_one lx with Res_ir.Parser.EOF -> () | _ -> drain ()
  in
  match drain () with
  | () -> true
  | exception Res_ir.Parser.Parse_error _ -> false

(** Best-effort parse: go line by line, keep everything up to the first
    damaged record, and require only that a crash record survived.  This is
    the salvage path for truncated or bit-corrupted dumps — triage can
    still run on the intact prefix.  A blank line is skipped; any other
    line is a record only if all of it lexes, and tokens after its record
    are ignored. *)
let parse_salvage src : Coredump.t option =
  if header_is "coredump v1" src || header_is "coredump v2" src then (
    let st = new_pstate () in
    let len = String.length src in
    let rec lines pos =
      if pos < len then (
        let lim = Option.value (String.index_from_opt src pos '\n') ~default:len in
        if not (is_blank src ~pos ~lim) then (
          if not (lexes src ~pos ~lim) then raise Exit;
          let rd = Res_ir.Parser.cursor ~pos ~lim src in
          match peek rd with
          | Res_ir.Parser.EOF -> ()
          | _ -> parse_record st rd);
        lines (lim + 1))
    in
    (try lines (String.index src '\n' + 1)
     with _ -> () (* damaged record: keep the prefix parsed so far *));
    match finalize st with dump -> Some dump | exception _ -> None)
  else None

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
  | Ok plen -> (
      match parse_strict src plen with
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

(* Through a file descriptor, not a channel: a channel's 64 KiB buffer
   is charged to the major heap on every open.  A regular file is read
   into a buffer of its [fstat] size; anything else (a pipe, [/dev/stdin],
   a socket) reports no size to trust and is read until end of file. *)
let read_file path =
  let unreadable why = Error (Unreadable (path ^ ": " ^ why)) in
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) -> unreadable (Unix.error_message e)
  | fd ->
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      let rec read b off len =
        try Unix.read fd b off len
        with Unix.Unix_error (Unix.EINTR, _, _) -> read b off len
      in
      let sized size =
        let b = Bytes.create size in
        let rec fill off =
          if off = size then Ok (Bytes.unsafe_to_string b)
          else
            match read b off (size - off) with
            | 0 -> unreadable "file shrank while reading"
            | n -> fill (off + n)
        in
        fill 0
      in
      let to_eof () =
        let out = Buffer.create 4096 and b = Bytes.create 65536 in
        let rec drain () =
          match read b 0 (Bytes.length b) with
          | 0 -> Ok (Buffer.contents out)
          | n ->
              Buffer.add_subbytes out b 0 n;
              drain ()
        in
        drain ()
      in
      Fun.protect ~finally (fun () ->
          try
            match Unix.fstat fd with
            | { Unix.st_kind = Unix.S_DIR; _ } -> unreadable "Is a directory"
            | { Unix.st_kind = Unix.S_REG; st_size; _ } -> sized st_size
            | _ -> to_eof ()
          with Unix.Unix_error (e, _, _) -> unreadable (Unix.error_message e))

(* --- loading files: one decode per distinct content --- *)

(* A fleet's corpus holds many byte-identical copies of few dumps (many
   reports, few root causes), so a file load decodes each distinct
   content once and hands every copy the same decoded dump.  A
   [Coredump.t] holds only immutable maps, lists and records, so sharing
   it is safe.

   The memo is keyed on the salvage mode and the file's whole text,
   compared as strings, never on its path: a file rewritten in place
   loads its new bytes.  Only successful loads are kept: a damaged file
   is decoded on every load.  It holds at most
   [memo_bound] bytes of key text and starts over when the next text
   would not fit; a decoded dump takes about four times its text, so
   memo and dumps stay near 5 MiB.  A text larger than the bound is not
   kept.  Each domain has its own memo and counters, like the solver's
   query counter, so the domains backend never shares one.
   {!of_string_result} stays unmemoized: it is the decoder itself. *)

let memo_bound = 1 lsl 20

(* The text's hash is taken once, when the file is read: the table
   rehashes its keys as it grows, and a text is hundreds of bytes. *)
type text_key = { salvage : bool; text : string; hash : int }

module Texts = Hashtbl.Make (struct
  type t = text_key

  let equal a b =
    a.hash = b.hash && Bool.equal a.salvage b.salvage && String.equal a.text b.text

  let hash k = k.hash
end)

type load_counts = { files : int; decoded : int; memo_bytes : int }

type memo = {
  texts : loaded Texts.t;
  mutable held : int;  (** bytes of text in [texts] *)
  mutable loads : int;
  mutable decodes : int;
}

let memo_key =
  Domain.DLS.new_key (fun () ->
      { texts = Texts.create 64; held = 0; loads = 0; decodes = 0 })

let load_counts () =
  let m = Domain.DLS.get memo_key in
  { files = m.loads; decoded = m.decodes; memo_bytes = m.held }

let remember m key (l : loaded) =
  let len = String.length key.text in
  if len <= memo_bound then begin
    if m.held + len > memo_bound then begin
      Texts.clear m.texts;
      m.held <- 0
    end;
    Texts.add m.texts key l;
    m.held <- m.held + len
  end

(** Load a coredump from [path], classifying damage instead of raising;
    a content loaded before (in this domain) is not decoded again. *)
let load_result ?(salvage = false) path : (loaded, dump_error) result =
  let m = Domain.DLS.get memo_key in
  m.loads <- m.loads + 1;
  match read_file path with
  | Error err -> Error err
  | Ok text -> (
      let key = { salvage; text; hash = Hashtbl.hash text } in
      match Texts.find_opt m.texts key with
      | Some l -> Ok l
      | None ->
          m.decodes <- m.decodes + 1;
          let r = of_string_result ~salvage text in
          Result.iter (remember m key) r;
          r)

(** Load a coredump from [path].
    @raise Bad_format on any failure (including unreadable files). *)
let load path =
  match load_result path with
  | Ok { dump; _ } -> dump
  | Error err -> raise (Bad_format (dump_error_to_string err))
