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
              if code > 255 then fail !line "bad decimal escape in string literal";
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
      if not !closed then fail !line "unterminated string literal";
      emit (STRING (Buffer.contents buf)))
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]) then (
      let start = !i in
      incr i;
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some v -> emit (INT v)
      | None -> fail !line "integer literal out of range")
    else if is_ident_start c then (
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (IDENT (String.sub src start (!i - start))))
    else fail !line "unexpected character %C" c
  done;
  List.rev !toks

(** Mutable token cursor. *)
type cursor = { mutable toks : (token * int) list; mutable last_line : int }

let peek c = match c.toks with [] -> None | (t, _) :: _ -> Some t

let next c =
  match c.toks with
  | [] -> fail c.last_line "unexpected end of input"
  | (t, l) :: rest ->
      c.toks <- rest;
      c.last_line <- l;
      (t, l)

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
  if peek c = Some RPAREN then []
  else
    let rec loop acc =
      let r = reg c in
      if peek c = Some COMMA then (
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
  | IDENT s when is_reg_ident s && peek c = Some EQUALS ->
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
      | Some (IDENT s) when is_reg_ident s -> T (Instr.Ret (Some (reg c)))
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
    | Some RBRACE ->
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
  let c = { toks = tokenize src; last_line = 1 } in
  let rec loop globals funcs =
    match peek c with
    | None -> Prog.v ~globals:(List.rev globals) (List.rev funcs)
    | Some (IDENT "global") ->
        expect c (IDENT "global");
        let gname = ident c in
        let gsize = int_lit c in
        loop ({ Prog.gname; gsize } :: globals) funcs
    | Some (IDENT "func") -> loop globals (parse_func c :: funcs)
    | Some t -> fail c.last_line "expected 'global' or 'func', found %a" pp_token t
  in
  loop [] []

(** Parse, turning failures into a [result] with a rendered message. *)
let parse_result src =
  match parse src with
  | p -> Ok p
  | exception Parse_error { line; msg } ->
      Error (Fmt.str "parse error at line %d: %s" line msg)
  | exception Invalid_argument msg -> Error msg
