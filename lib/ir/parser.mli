(** Textual assembler for MiniIR.

    The concrete syntax is the one produced by the pretty-printers, so
    [parse (Prog.to_string p)] round-trips (property-tested).  [#] starts a
    line comment.  Sketch:

    {v
    global counter 1

    func main() {
    entry:
      r0 = const 5
      r1 = add r0, r0
      r2 = global counter
      store r2[0] = r1
      br r1, big, small
    big:
      halt
    small:
      abort "impossible"
    }
    v} *)

exception Parse_error of { line : int; msg : string }

(** Lexer tokens — exposed so other textual formats (coredumps) read
    the same token language. *)
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
  | EOF  (** past the last token *)

val pp_token : Format.formatter -> token -> unit

(** A cursor over a range of a string that lexes one token at a time. *)
type lexer

(** [lexer ?pos ?lim src] lexes [src.[pos .. lim - 1]] (default: all of
    it), starting at line 1.
    @raise Invalid_argument if the range is not inside [src]. *)
val lexer : ?pos:int -> ?lim:int -> string -> lexer

(** The next token, or [EOF] once the range is used up; no token is
    lexed before it is asked for.
    @raise Parse_error on a lexical error. *)
val lex_one : lexer -> token

(** The line of the token {!lex_one} returned last. *)
val line : lexer -> int

(** A {!lexer} with one token of lookahead. *)
type cursor

val cursor : ?pos:int -> ?lim:int -> string -> cursor

(** The next token, without consuming it; [EOF] once the range is used
    up.
    @raise Parse_error on a lexical error. *)
val peek : cursor -> token

(** Consume the token {!peek} returned. *)
val junk : cursor -> unit

(** Parse a whole program.
    @raise Parse_error with a line number on malformed input.
    @raise Invalid_argument on structural duplicates (via {!Prog.v}). *)
val parse : string -> Prog.t

(** Parse, turning failures into a [result] with a rendered message. *)
val parse_result : string -> (Prog.t, string) result
