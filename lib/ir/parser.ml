(** Textual assembler for MiniIR.

    The concrete syntax is the one produced by the pretty-printers in
    {!Instr}, {!Block}, {!Func} and {!Prog}, so [parse (Prog.to_string p)]
    round-trips.  [#] starts a line comment.  See README.md for a grammar
    sketch and examples. *)

exception Parse_error of { line : int; msg : string }

let fail line fmt = Fmt.kstr (fun msg -> raise (Parse_error { line; msg })) fmt

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LBRACE
  | RBRACE
  | LBRACK
  | RBRACK
  | LPAREN
  | RPAREN
  | COMMA
  | EQUALS
  | COLON
  | EOF

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %s" s
  | INT n -> Fmt.pf ppf "integer %d" n
  | STRING s -> Fmt.pf ppf "string %S" s
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | LBRACK -> Fmt.string ppf "'['"
  | RBRACK -> Fmt.string ppf "']'"
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | COMMA -> Fmt.string ppf "','"
  | EQUALS -> Fmt.string ppf "'='"
  | COLON -> Fmt.string ppf "':'"
  | EOF -> Fmt.string ppf "end of input"

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' | '.' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

(** A lexer: a cursor over [src.[pos .. lim - 1]] that lexes one token
    per {!lex_one}.  Every reader of the MiniIR token language — the IR
    parser and the coredump reader — lexes through it, so they share one
    set of lexical rules. *)
type lexer = { src : string; lim : int; mutable pos : int; mutable line : int }

let lexer ?(pos = 0) ?lim src =
  let lim = Option.value lim ~default:(String.length src) in
  if pos < 0 || pos > lim || lim > String.length src then
    invalid_arg "Parser.lexer: range outside the string";
  { src; lim; pos; line = 1 }

let line lx = lx.line

(* Blanks, newlines and [#] comments before the next token. *)
let skip_blanks lx =
  let src = lx.src and lim = lx.lim in
  let i = ref lx.pos and blank = ref true in
  while !blank && !i < lim do
    match String.unsafe_get src !i with
    | '\n' ->
        lx.line <- lx.line + 1;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '#' ->
        while !i < lim && String.unsafe_get src !i <> '\n' do
          incr i
        done
    | _ -> blank := false
  done;
  lx.pos <- !i

(* A decimal literal, [-]digits, read as [int_of_string] reads it: any
   number of leading zeros, and out of range outside
   [min_int .. max_int].  The value is accumulated negated, so [min_int]
   is representable. *)
let min_tenth = min_int / 10
let min_last = -(min_int mod 10)

let lex_int lx =
  let src = lx.src and lim = lx.lim in
  let neg = String.unsafe_get src lx.pos = '-' in
  let i = ref (if neg then lx.pos + 1 else lx.pos) in
  let acc = ref 0 and in_range = ref true in
  while !i < lim && is_digit (String.unsafe_get src !i) do
    let d = Char.code (String.unsafe_get src !i) - 48 in
    if !acc < min_tenth || (!acc = min_tenth && d > min_last) then
      in_range := false
    else acc := (!acc * 10) - d;
    incr i
  done;
  lx.pos <- !i;
  if (not !in_range) || ((not neg) && !acc = min_int) then
    fail lx.line "integer literal out of range";
  INT (if neg then !acc else - !acc)

(* A string literal, the opening quote at [lx.pos]: decode every escape
   [String.escaped] (so [%S]) writes: n t r b, three decimal digits for
   any other byte, and the escaped character itself for a backslash or a
   quote.  A literal without escapes is one [String.sub]. *)
let lex_string lx =
  let src = lx.src and n = lx.lim in
  let start = lx.pos + 1 in
  let j = ref start in
  while !j < n && (let c = String.unsafe_get src !j in c <> '"' && c <> '\\') do
    incr j
  done;
  if !j < n && String.unsafe_get src !j = '"' then (
    lx.pos <- !j + 1;
    STRING (String.sub src start (!j - start)))
  else
    let buf = Buffer.create 16 in
    Buffer.add_substring buf src start (!j - start);
    let i = ref !j in
    let closed = ref false in
    while (not !closed) && !i < n do
      let c = src.[!i] in
      if c = '"' then (
        closed := true;
        incr i)
      else if c = '\\' && !i + 1 < n then (
        match src.[!i + 1] with
        | '0' .. '9' ->
            let digits = if !i + 3 < n then String.sub src (!i + 1) 3 else "" in
            let code =
              if String.length digits = 3 && String.for_all is_digit digits
              then int_of_string digits
              else 256
            in
            if code > 255 then fail lx.line "bad decimal escape in string literal";
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
    lx.pos <- !i;
    if not !closed then fail lx.line "unterminated string literal";
    STRING (Buffer.contents buf)

(** The next token, [EOF] past the last one; the lexer's {!line} is
    then the token's line.
    @raise Parse_error on a lexical error. *)
let punct lx t =
  lx.pos <- lx.pos + 1;
  t

let lex_one lx =
  skip_blanks lx;
  if lx.pos >= lx.lim then EOF
  else
    match String.unsafe_get lx.src lx.pos with
    | '{' -> punct lx LBRACE
    | '}' -> punct lx RBRACE
    | '[' -> punct lx LBRACK
    | ']' -> punct lx RBRACK
    | '(' -> punct lx LPAREN
    | ')' -> punct lx RPAREN
    | ',' -> punct lx COMMA
    | '=' -> punct lx EQUALS
    | ':' -> punct lx COLON
    | '"' -> lex_string lx
    | '0' .. '9' -> lex_int lx
    | '-'
      when lx.pos + 1 < lx.lim && is_digit (String.unsafe_get lx.src (lx.pos + 1))
      ->
        lex_int lx
    | c when is_ident_start c ->
        let start = lx.pos in
        let stop = ref (start + 1) in
        while !stop < lx.lim && is_ident_char (String.unsafe_get lx.src !stop) do
          incr stop
        done;
        lx.pos <- !stop;
        IDENT (String.sub lx.src start (!stop - start))
    | c -> fail lx.line "unexpected character %C" c

(** Token cursor with one token of lookahead. *)
type cursor = {
  lx : lexer;
  mutable look : token;  (** the next token, when [ahead] *)
  mutable ahead : bool;
  mutable last_line : int;  (** line of the last token consumed *)
}

let cursor ?pos ?lim src =
  { lx = lexer ?pos ?lim src; look = EOF; ahead = false; last_line = 1 }

let peek c =
  if not c.ahead then (
    c.look <- lex_one c.lx;
    c.ahead <- true);
  c.look

let junk c =
  c.ahead <- false;
  c.last_line <- line c.lx

let next c =
  match peek c with
  | EOF -> fail c.last_line "unexpected end of input"
  | t ->
      junk c;
      (t, c.last_line)

let expect c tok =
  let t, l = next c in
  if t <> tok then fail l "expected %a, found %a" pp_token tok pp_token t

let ident c =
  match next c with
  | IDENT s, _ -> s
  | t, l -> fail l "expected identifier, found %a" pp_token t

let int_lit c =
  match next c with
  | INT n, _ -> n
  | t, l -> fail l "expected integer, found %a" pp_token t

let string_lit c =
  match next c with
  | STRING s, _ -> s
  | t, l -> fail l "expected string literal, found %a" pp_token t

let reg_of_ident l s =
  let len = String.length s in
  if len >= 2 && s.[0] = 'r' && String.for_all is_digit (String.sub s 1 (len - 1))
  then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some r -> r
    | None -> fail l "register number out of range in %s" s
  else fail l "expected register (rN), found %s" s

let reg c =
  match next c with
  | IDENT s, l -> reg_of_ident l s
  | t, l -> fail l "expected register, found %a" pp_token t

let is_reg_ident s =
  let len = String.length s in
  len >= 2 && s.[0] = 'r' && String.for_all is_digit (String.sub s 1 (len - 1))

(** [r1, r2, ...] possibly empty, already inside parens. *)
let reg_list c =
  if peek c = RPAREN then []
  else
    let rec loop acc =
      let r = reg c in
      if peek c = COMMA then (
        expect c COMMA;
        loop (r :: acc))
      else List.rev (r :: acc)
    in
    loop []

let input_kind c =
  let s = ident c in
  match Instr.input_kind_of_name s with
  | Some k -> k
  | None -> fail c.last_line "unknown input kind %s" s

(* [r = load a[off]] / [store a[off] = src] addressing suffix. *)
let bracket_offset c =
  expect c LBRACK;
  let off = int_lit c in
  expect c RBRACK;
  off

let call_args c =
  expect c LPAREN;
  let args = reg_list c in
  expect c RPAREN;
  args

(** An assignment right-hand side, after [rD =] was consumed. *)
let parse_rhs c dst =
  let op, l =
    match next c with
    | IDENT s, l -> (s, l)
    | t, l -> fail l "expected opcode, found %a" pp_token t
  in
  match op with
  | "const" -> Instr.Const (dst, int_lit c)
  | "mov" -> Instr.Mov (dst, reg c)
  | "global" -> Instr.Global_addr (dst, ident c)
  | "alloc" -> Instr.Alloc (dst, reg c)
  | "input" -> Instr.Input (dst, input_kind c)
  | "spawn" ->
      let f = ident c in
      Instr.Spawn (dst, f, call_args c)
  | "call" ->
      let f = ident c in
      Instr.Call (Some dst, f, call_args c)
  | "load" ->
      let a = reg c in
      Instr.Load (dst, a, bracket_offset c)
  | _ -> (
      match Instr.binop_of_name op with
      | Some bop ->
          let a = reg c in
          expect c COMMA;
          let b = reg c in
          Instr.Binop (bop, dst, a, b)
      | None -> (
          match Instr.unop_of_name op with
          | Some uop -> Instr.Unop (uop, dst, reg c)
          | None -> fail l "unknown opcode %s" op))

type stmt = I of Instr.instr | T of Instr.terminator

(** One statement: either a straight-line instruction or a terminator. *)
let parse_stmt c =
  let t, l = next c in
  match t with
  | IDENT s when is_reg_ident s && peek c = EQUALS ->
      let dst = reg_of_ident l s in
      expect c EQUALS;
      I (parse_rhs c dst)
  | IDENT "store" ->
      let a = reg c in
      let off = bracket_offset c in
      expect c EQUALS;
      I (Instr.Store (a, off, reg c))
  | IDENT "free" -> I (Instr.Free (reg c))
  | IDENT "lock" -> I (Instr.Lock (reg c))
  | IDENT "unlock" -> I (Instr.Unlock (reg c))
  | IDENT "join" -> I (Instr.Join (reg c))
  | IDENT "call" ->
      let f = ident c in
      I (Instr.Call (None, f, call_args c))
  | IDENT "assert" ->
      let r = reg c in
      expect c COMMA;
      I (Instr.Assert (r, string_lit c))
  | IDENT "log" ->
      let tag = string_lit c in
      expect c COMMA;
      I (Instr.Log (tag, reg c))
  | IDENT "nop" -> I Instr.Nop
  | IDENT "jmp" -> T (Instr.Jmp (ident c))
  | IDENT "br" ->
      let r = reg c in
      expect c COMMA;
      let l1 = ident c in
      expect c COMMA;
      let l2 = ident c in
      T (Instr.Br (r, l1, l2))
  | IDENT "ret" -> (
      match peek c with
      | IDENT s when is_reg_ident s -> T (Instr.Ret (Some (reg c)))
      | _ -> T (Instr.Ret None))
  | IDENT "halt" -> T Instr.Halt
  | IDENT "abort" -> T (Instr.Abort (string_lit c))
  | t -> fail l "expected statement, found %a" pp_token t

(** One labelled block: [label:] then statements up to a terminator. *)
let parse_block c =
  let label = ident c in
  expect c COLON;
  let rec loop acc =
    match parse_stmt c with
    | I i -> loop (i :: acc)
    | T t -> Block.v label (List.rev acc) t
  in
  loop []

let parse_func c =
  expect c (IDENT "func");
  let name = ident c in
  expect c LPAREN;
  let params = reg_list c in
  expect c RPAREN;
  expect c LBRACE;
  let rec blocks acc =
    match peek c with
    | RBRACE ->
        expect c RBRACE;
        List.rev acc
    | _ -> blocks (parse_block c :: acc)
  in
  let bs = blocks [] in
  (match bs with
  | [] -> fail c.last_line "function %s has no blocks" name
  | _ -> ());
  let entry = (List.hd bs : Block.t).label in
  Func.v ~name ~params ~entry bs

(** Parse a whole program from source text.
    @raise Parse_error with a line number on malformed input.
    @raise Invalid_argument on structural duplicates (via {!Prog.v}). *)
let parse src =
  let c = cursor src in
  let rec loop globals funcs =
    match peek c with
    | EOF -> Prog.v ~globals:(List.rev globals) (List.rev funcs)
    | IDENT "global" ->
        expect c (IDENT "global");
        let gname = ident c in
        let gsize = int_lit c in
        loop ({ Prog.gname; gsize } :: globals) funcs
    | IDENT "func" -> loop globals (parse_func c :: funcs)
    | t -> fail c.last_line "expected 'global' or 'func', found %a" pp_token t
  in
  loop [] []

(** Parse, turning failures into a [result] with a rendered message. *)
let parse_result src =
  match parse src with
  | p -> Ok p
  | exception Parse_error { line; msg } ->
      Error (Fmt.str "parse error at line %d: %s" line msg)
  | exception Invalid_argument msg -> Error msg
