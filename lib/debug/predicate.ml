(** Expressions over a replayed machine state.

    The debugger's watchpoints, transition watchpoints, [print], and
    [assert] all evaluate the same small expression language against a
    reconstructed {!Res_vm.Exec.state}:

    {v
      expr := int | 0xhex | r<N> | t<T>:r<N> | &global | [expr]
            | expr (+ - * / %) expr
            | expr (== != < <= > >=) expr     (1 / 0)
            | expr (&& ||) expr               (non-zero = true)
            | ( expr )
    v}

    [r<N>] reads register N of the session's focused thread (an absent
    thread, frame, or register reads as 0 — the VM's own register
    semantics); [t<T>:r<N>] names the thread explicitly.  [[e]] reads the
    memory word at address [e].  [&name] is the address of a global.
    Division or remainder by zero evaluates to 0: predicate evaluation is
    total, so a watchpoint can never crash the debugger. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Lit of int
  | Reg of { tid : int option; reg : int }  (** [None]: focused thread *)
  | Global of string  (** address of a global, resolved via the layout *)
  | Mem of expr
  | Bin of binop * expr * expr

(* --- evaluation ------------------------------------------------------- *)

module IMap = Map.Make (Int)

let read_reg_of st ~tid ~reg =
  match IMap.find_opt tid st.Res_vm.Exec.threads with
  | Some th -> (
      match Res_vm.Thread.top_opt th with
      | Some fr -> Res_vm.Frame.read_reg fr reg
      | None -> 0)
  | None -> 0

exception Eval_error of string

(** Evaluate [e] against [st] with [focus] as the implicit thread.
    @raise Eval_error only for an unresolvable [&global]. *)
let eval ~layout ~focus st e =
  let rec go = function
    | Lit n -> n
    | Reg { tid; reg } ->
        read_reg_of st ~tid:(Option.value tid ~default:focus) ~reg
    | Global name -> (
        match Res_mem.Layout.global_base layout name with
        | base -> base
        | exception Not_found ->
            raise (Eval_error (Fmt.str "unknown global: %s" name)))
    | Mem a -> Res_mem.Memory.read st.Res_vm.Exec.mem (go a)
    | Bin (op, a, b) -> (
        let va = go a in
        match op with
        | And -> if va = 0 then 0 else if go b <> 0 then 1 else 0
        | Or -> if va <> 0 then 1 else if go b <> 0 then 1 else 0
        | _ -> (
            let vb = go b in
            match op with
            | Add -> va + vb
            | Sub -> va - vb
            | Mul -> va * vb
            | Div -> if vb = 0 then 0 else va / vb
            | Rem -> if vb = 0 then 0 else va mod vb
            | Eq -> if va = vb then 1 else 0
            | Ne -> if va <> vb then 1 else 0
            | Lt -> if va < vb then 1 else 0
            | Le -> if va <= vb then 1 else 0
            | Gt -> if va > vb then 1 else 0
            | Ge -> if va >= vb then 1 else 0
            | And | Or -> assert false))
  in
  go e

(* --- printing --------------------------------------------------------- *)

let op_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec pp ppf = function
  | Lit n -> Fmt.int ppf n
  | Reg { tid = None; reg } -> Fmt.pf ppf "r%d" reg
  | Reg { tid = Some t; reg } -> Fmt.pf ppf "t%d:r%d" t reg
  | Global g -> Fmt.pf ppf "&%s" g
  | Mem a -> Fmt.pf ppf "[%a]" pp a
  | Bin (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (op_str op) pp b

(* --- parsing ---------------------------------------------------------- *)

type token =
  | T_int of int
  | T_reg of int option * int
  | T_global of string
  | T_op of string
  | T_lbrack
  | T_rbrack
  | T_lparen
  | T_rparen

let is_digit c = c >= '0' && c <= '9'
let is_ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

exception Lex of string

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let fail msg = Error (Fmt.str "%s at column %d" msg (!i + 1)) in
  let read_int () =
    (* 0x... or decimal; caller guarantees a digit at !i *)
    let start = !i in
    if
      !i + 1 < n
      && s.[!i] = '0'
      && (s.[!i + 1] = 'x' || s.[!i + 1] = 'X')
    then begin
      i := !i + 2;
      while
        !i < n
        && (is_digit s.[!i]
           || (s.[!i] >= 'a' && s.[!i] <= 'f')
           || (s.[!i] >= 'A' && s.[!i] <= 'F'))
      do
        incr i
      done
    end
    else while !i < n && is_digit s.[!i] do incr i done;
    (* bare "0x" (no hex digits) and out-of-range literals both land
       here: [int_of_string] would raise Failure straight through the
       debugger, so lex errors get their own exception, caught below. *)
    match int_of_string_opt (String.sub s start (!i - start)) with
    | Some v -> v
    | None -> raise (Lex "malformed or out-of-range integer literal")
  in
  let rec loop () =
    if !i >= n then Ok (List.rev !toks)
    else
      let c = s.[!i] in
      if c = ' ' || c = '\t' then begin
        incr i;
        loop ()
      end
      else if is_digit c then begin
        toks := T_int (read_int ()) :: !toks;
        loop ()
      end
      else if c = '[' then (incr i; toks := T_lbrack :: !toks; loop ())
      else if c = ']' then (incr i; toks := T_rbrack :: !toks; loop ())
      else if c = '(' then (incr i; toks := T_lparen :: !toks; loop ())
      else if c = ')' then (incr i; toks := T_rparen :: !toks; loop ())
      else if c = '&' && !i + 1 < n && s.[!i + 1] = '&' then begin
        i := !i + 2;
        toks := T_op "&&" :: !toks;
        loop ()
      end
      else if c = '&' then begin
        incr i;
        let start = !i in
        while !i < n && is_ident s.[!i] do incr i done;
        if !i = start then fail "expected global name after '&'"
        else begin
          toks := T_global (String.sub s start (!i - start)) :: !toks;
          loop ()
        end
      end
      else if c = '|' && !i + 1 < n && s.[!i + 1] = '|' then begin
        i := !i + 2;
        toks := T_op "||" :: !toks;
        loop ()
      end
      else if c = 'r' && !i + 1 < n && is_digit s.[!i + 1] then begin
        incr i;
        let r = read_int () in
        toks := T_reg (None, r) :: !toks;
        loop ()
      end
      else if c = 't' && !i + 1 < n && is_digit s.[!i + 1] then begin
        incr i;
        let t = read_int () in
        if !i + 1 < n && s.[!i] = ':' && s.[!i + 1] = 'r' then begin
          i := !i + 2;
          if !i < n && is_digit s.[!i] then begin
            let r = read_int () in
            toks := T_reg (Some t, r) :: !toks;
            loop ()
          end
          else fail "expected register number after 't<N>:r'"
        end
        else fail "expected ':r<N>' after thread qualifier"
      end
      else
        let two = if !i + 1 < n then String.sub s !i 2 else "" in
        if List.mem two [ "=="; "!="; "<="; ">=" ] then begin
          i := !i + 2;
          toks := T_op two :: !toks;
          loop ()
        end
        else if List.mem c [ '+'; '-'; '*'; '/'; '%'; '<'; '>' ] then begin
          incr i;
          toks := T_op (String.make 1 c) :: !toks;
          loop ()
        end
        else fail (Fmt.str "unexpected character '%c'" c)
  in
  match loop () with
  | r -> r
  | exception Lex msg -> fail msg

let binop_of = function
  | "+" -> Add
  | "-" -> Sub
  | "*" -> Mul
  | "/" -> Div
  | "%" -> Rem
  | "==" -> Eq
  | "!=" -> Ne
  | "<" -> Lt
  | "<=" -> Le
  | ">" -> Gt
  | ">=" -> Ge
  | "&&" -> And
  | "||" -> Or
  | s -> invalid_arg ("Predicate.binop_of: " ^ s)

(* Recursive descent; precedence (loosest first): || < && < comparisons
   < additive < multiplicative.  A depth counter caps nesting: without
   it a hostile "((((..." or "----..." prefix recurses once per
   character and kills the debugger with Stack_overflow instead of a
   parse error. *)
let max_depth = 200

let parse_tokens toks =
  let toks = ref toks in
  let peek () = match !toks with t :: _ -> Some t | [] -> None in
  let advance () = match !toks with _ :: r -> toks := r | [] -> () in
  let exception Parse of string in
  let depth = ref 0 in
  let rec atom () =
    incr depth;
    if !depth > max_depth then raise (Parse "expression too deeply nested");
    let e =
      match peek () with
      | Some (T_int n) -> advance (); Lit n
      | Some (T_reg (tid, reg)) -> advance (); Reg { tid; reg }
      | Some (T_global g) -> advance (); Global g
      | Some T_lbrack ->
          advance ();
          let e = disj () in
          (match peek () with
          | Some T_rbrack -> advance (); Mem e
          | _ -> raise (Parse "expected ']'"))
      | Some T_lparen ->
          advance ();
          let e = disj () in
          (match peek () with
          | Some T_rparen -> advance (); e
          | _ -> raise (Parse "expected ')'"))
      | Some (T_op "-") ->
          advance ();
          Bin (Sub, Lit 0, atom ())
      | _ -> raise (Parse "expected a value")
    in
    decr depth;
    e
  and level ops next () =
    let left = ref (next ()) in
    let rec go () =
      match peek () with
      | Some (T_op o) when List.mem o ops ->
          advance ();
          left := Bin (binop_of o, !left, next ());
          go ()
      | _ -> ()
    in
    go ();
    !left
  and mul () = level [ "*"; "/"; "%" ] atom ()
  and add () = level [ "+"; "-" ] mul ()
  and cmp () = level [ "=="; "!="; "<"; "<="; ">"; ">=" ] add ()
  and conj () = level [ "&&" ] cmp ()
  and disj () = level [ "||" ] conj ()
  in
  match disj () with
  | e -> if !toks = [] then Ok e else Error "trailing tokens after expression"
  | exception Parse msg -> Error msg

(** Parse an expression.  [Error] carries a human-readable reason. *)
let parse s =
  match tokenize s with Ok toks -> parse_tokens toks | Error e -> Error e
