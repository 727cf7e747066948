(** The coredump codec as it was before the one-pass rewrite: a token
    list built by a whole-input tokenizer, a [Scanf]/[Printf] round trip
    for the footer, and a [Buffer] encoder sealed by string
    concatenation.  It is the reference the codec differential tests
    compare {!Res_vm.Coredump_io} against: both must accept the same
    inputs, decode them to the same dumps, classify the rest into the
    same {!Res_vm.Coredump_io.dump_error} constructors, and encode every
    dump to the same bytes. *)

open Res_vm
open Res_ir.Parser
module IMap = Map.Make (Int)

exception Bad_format of string

let fail fmt = Fmt.kstr (fun m -> raise (Bad_format m)) fmt

(* --- the whole-input tokenizer --- *)

let lex_fail line fmt =
  Fmt.kstr (fun msg -> raise (Parse_error { line; msg })) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'
let is_digit c = c >= '0' && c <= '9'

(** Tokenize [src] into [(token, line)] pairs. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let emit t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (
      incr line;
      incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = '{' then (emit LBRACE; incr i)
    else if c = '}' then (emit RBRACE; incr i)
    else if c = '[' then (emit LBRACK; incr i)
    else if c = ']' then (emit RBRACK; incr i)
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = '=' then (emit EQUALS; incr i)
    else if c = ':' then (emit COLON; incr i)
    else if c = '"' then (
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        if c = '"' then (
          closed := true;
          incr i)
        else if c = '\\' && !i + 1 < n then (
          (* decode every escape [String.escaped] (so [%S]) writes:
             n t r b, three decimal digits for any other byte, and the
             escaped character itself for a backslash or a quote *)
          match src.[!i + 1] with
          | '0' .. '9' ->
              let digits = if !i + 3 < n then String.sub src (!i + 1) 3 else "" in
              let code =
                if String.length digits = 3 && String.for_all is_digit digits
                then int_of_string digits
                else 256
              in
              if code > 255 then lex_fail !line "bad decimal escape in string literal";
              Buffer.add_char buf (Char.chr code);
              i := !i + 4
          | e ->
              Buffer.add_char buf
                (match e with
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | 'b' -> '\b'
                | e -> e);
              i := !i + 2)
        else (
          Buffer.add_char buf c;
          incr i)
      done;
      if not !closed then lex_fail !line "unterminated string literal";
      emit (STRING (Buffer.contents buf)))
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]) then (
      let start = !i in
      incr i;
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some v -> emit (INT v)
      | None -> lex_fail !line "integer literal out of range")
    else if is_ident_start c then (
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (IDENT (String.sub src start (!i - start))))
    else lex_fail !line "unexpected character %C" c
  done;
  List.rev !toks


(* --- the encoder --- *)

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
(* --- the token-list reader --- *)

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
let validate_sealed ~header src =
  if String.trim src = "" then Error Coredump_io.Empty_dump
  else if not (header (first_line src)) then Error (Coredump_io.Bad_header (first_line src))
  else
    match split_footer src with
    | Some (payload, footer) when String.length footer >= 4
                                  && String.sub footer 0 4 = "end " -> (
        match Scanf.sscanf_opt footer "end %d %d" (fun a b -> (a, b)) with
        | None -> Error (Coredump_io.Truncated "unparsable end-of-record footer")
        | Some (lines, checksum)
          when not (String.equal footer (Printf.sprintf "end %d %d" lines checksum))
          ->
            (* sscanf ignores trailing bytes, so "end 5 123junk" would
               otherwise validate: require the footer to round-trip *)
            Error (Coredump_io.Truncated "trailing bytes in end-of-record footer")
        | Some (lines, checksum) ->
            let actual_lines = count_lines payload in
            if actual_lines <> lines then
              Error
                (Truncated
                   (Fmt.str "%d of %d record lines present" actual_lines lines))
            else
              let actual = fnv1a32 payload in
              if actual <> checksum then
                Error (Coredump_io.Corrupted { expected = checksum; actual })
              else Ok payload)
    | _ -> Error (Coredump_io.Truncated "missing end-of-record footer")

(** Check header/footer/checksum; returns the record payload to parse. *)
let validate_envelope src =
  if String.trim src = "" then Error Coredump_io.Empty_dump
  else
    match first_line src with
    | "coredump v1" -> Ok src (* legacy: no envelope to check *)
    | "coredump v2" -> validate_sealed ~header:(String.equal "coredump v2") src
    | l -> Error (Coredump_io.Bad_header l)

let classify_exn = function
  | Bad_format m -> Coredump_io.Malformed m
  | Parse_error { line; msg } ->
      Coredump_io.Malformed (Fmt.str "lexical error at line %d: %s" line msg)
  | exn -> Coredump_io.Malformed (Printexc.to_string exn)

let parse_strict payload =
  match
    let rd = { toks = tokenize payload } in
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
               let rd = { toks = tokenize line } in
               match peek rd with
               | None -> ()
               | Some _ -> parse_record st rd)
           lines
       with _ -> () (* damaged record: keep the prefix parsed so far *));
      match finalize st with
      | dump -> Some dump
      | exception _ -> None)
  | _ -> None

(** A load as the old codec did it: the dump and, after a salvage, the
    damage it worked around. *)
let of_string_result ?(salvage = false) src =
  let salvage_or err =
    if not salvage then Error err
    else
      match parse_salvage src with
      | Some dump -> Ok (dump, Some err)
      | None -> Error err
  in
  match validate_envelope src with
  | Error err -> salvage_or err
  | Ok payload -> (
      match parse_strict payload with
      | Ok dump -> Ok (dump, None)
      | Error err -> salvage_or err)
