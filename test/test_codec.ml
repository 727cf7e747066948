(* Codec differential tests: the one-pass coredump codec
   (Res_vm.Coredump_io, lexing through Res_ir.Parser.lex_one) against the
   token-list reference in Codec_ref.  Every input must get the same [Ok]
   dump from both (compared as the reference encoder's bytes) or the same
   dump_error constructor, in strict and in salvage mode; every payload
   must lex to the same tokens or fail at the same line with the same
   message; and the two encoders must write the same bytes for every
   dump, because cache keys hash those bytes.

   Inputs: every workload's dump, the triage corpus's dumps, an
   extreme-value dump, seeded byte mutations of all of those payloads
   re-sealed with a valid footer so they reach the parser, and hostile
   footers and headers. *)

module Io = Res_vm.Coredump_io
module P = Res_ir.Parser

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let class_of = function
  | Io.Empty_dump -> "empty"
  | Io.Bad_header _ -> "bad-header"
  | Io.Truncated _ -> "truncated"
  | Io.Corrupted _ -> "corrupted"
  | Io.Malformed _ -> "malformed"
  | Io.Unreadable _ -> "unreadable"

(* A load as comparable text: the dump in the reference encoder's bytes
   and the class of the damage a salvage worked around, or the class of
   the error. *)
let verdict_new ~salvage text =
  match Io.of_string_result ~salvage text with
  | Ok { Io.dump; salvaged } ->
      Ok (Codec_ref.to_string dump, Option.map class_of salvaged)
  | Error e -> Error (class_of e)

let verdict_ref ~salvage text =
  match Codec_ref.of_string_result ~salvage text with
  | Ok (dump, salvaged) -> Ok (Codec_ref.to_string dump, Option.map class_of salvaged)
  | Error e -> Error (class_of e)

let pp_verdict ppf = function
  | Ok (bytes, salvaged) ->
      Fmt.pf ppf "Ok (%d bytes%a)" (String.length bytes)
        Fmt.(option (any ", salvaged " ++ string))
        salvaged
  | Error c -> Fmt.pf ppf "Error %s" c

(* Every token of [text] through the one-token lexer, with its line. *)
let tokens_new text =
  let lx = P.lexer text in
  let rec go acc =
    match P.lex_one lx with
    | P.EOF -> List.rev acc
    | t -> go ((t, P.line lx) :: acc)
  in
  match go [] with
  | toks -> Ok toks
  | exception P.Parse_error { line; msg } -> Error (line, msg)

let tokens_ref text =
  match Codec_ref.tokenize text with
  | toks -> Ok toks
  | exception P.Parse_error { line; msg } -> Error (line, msg)

let same_tokens text =
  match (tokens_new text, tokens_ref text) with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> a = b
  | _ -> false

(* The payload of a sealed text (footer line dropped), or the text. *)
let payload_of text =
  match Codec_ref.validate_sealed ~header:(fun _ -> true) text with
  | Ok payload -> payload
  | Error _ -> text

(* Compare both codecs on one input; a description of the first
   disagreement, if any. *)
let disagreement text =
  let strict_new = verdict_new ~salvage:false text
  and strict_ref = verdict_ref ~salvage:false text in
  let salvage_new = verdict_new ~salvage:true text
  and salvage_ref = verdict_ref ~salvage:true text in
  if strict_new <> strict_ref then
    Some (Fmt.str "strict: %a, reference %a" pp_verdict strict_new pp_verdict strict_ref)
  else if salvage_new <> salvage_ref then
    Some
      (Fmt.str "salvage: %a, reference %a" pp_verdict salvage_new pp_verdict
         salvage_ref)
  else if not (same_tokens (payload_of text)) then Some "token streams differ"
  else
    match Io.of_string_result ~salvage:true text with
    | Ok { Io.dump; _ } when Io.to_string dump <> Codec_ref.to_string dump ->
        Some "encoders differ on the decoded dump"
    | _ -> None

let expect_agree what text =
  match disagreement text with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s\ninput %S" what why text

(* --- the inputs --- *)

let workload_dumps () =
  List.map
    (fun (w : Res_workloads.Truth.t) ->
      (w.Res_workloads.Truth.w_name, Res_workloads.Truth.coredump w))
    Res_workloads.Workloads.all

let corpus_dumps () =
  List.map
    (fun (r : Res_workloads.Corpus.report) ->
      (Fmt.str "corpus report %d" r.Res_workloads.Corpus.r_id, r.r_dump))
    (Res_workloads.Corpus.generate ())

(* Integers at the edges of the range, negative values, and strings that
   need every escape, planted into a real dump. *)
let extreme_dump () =
  let d = Res_workloads.Truth.coredump (Res_workloads.Workloads.find "counter-race") in
  let mem =
    List.fold_left
      (fun m (a, v) -> Res_mem.Memory.write m a v)
      d.Res_vm.Coredump.mem
      [ (min_int, max_int); (max_int, min_int); (-1, -10); (0, 0); (9, -9) ]
  in
  let tracer =
    {
      d.Res_vm.Coredump.tracer with
      Res_vm.Tracer.logs =
        [
          { Res_vm.Tracer.log_tid = -3; log_tag = "q\"b\\s\nt\tr\r\b\000\255 #"; log_value = min_int };
          { Res_vm.Tracer.log_tid = 0; log_tag = ""; log_value = max_int };
        ];
    }
  in
  {
    d with
    Res_vm.Coredump.mem;
    tracer;
    steps = max_int;
    crash = { d.crash with Res_vm.Crash.kind = Res_vm.Crash.Deadlock [ 0; -1; max_int ] };
  }

let all_dumps =
  lazy
    (workload_dumps () @ corpus_dumps () @ [ ("extreme values", extreme_dump ()) ])

(* --- tests --- *)

let test_encoders_agree () =
  List.iter
    (fun (what, d) ->
      check string_t (what ^ ": encoder bytes") (Codec_ref.to_string d) (Io.to_string d))
    (Lazy.force all_dumps);
  List.iter
    (fun payload ->
      check string_t "seal" (Codec_ref.seal payload) (Io.seal payload))
    [ ""; "\n"; "coredump v2\n"; "x\ny\n"; String.make 1000 '\n' ]

let test_pristine_agree () =
  List.iter
    (fun (what, d) ->
      let text = Io.to_string d in
      expect_agree what text;
      match Io.of_string_result text with
      | Ok { Io.dump; salvaged = None } ->
          check string_t (what ^ ": round trip") text (Io.to_string dump)
      | _ -> Alcotest.failf "%s: its own encoding does not load" what)
    (Lazy.force all_dumps)

(* Seeded damage, re-sealed so it reaches the parser: a byte replaced,
   bytes deleted, a token-sized snippet inserted, or a whole line copied
   to another line start (a thread, frame or cell given twice).  The
   header line is left alone, so every case gets past it. *)
let snippets =
  [| " 7"; " -0"; " x"; " 99999999999999999999"; " -4611686018427387904";
     " 4611686018427387904"; " 4611686018427387903"; " 007"; " \"s\\n\"";
     " \"\\300\""; " \"open"; " #c"; "\n"; " none"; " -"; " 1.5"; "\t"; "\r" |]

let alphabet = "0123456789- \n\"\\#\tabz_.{}=:,\000\255"

let mutate rng payload =
  let header_end =
    match String.index_opt payload '\n' with Some i -> i + 1 | None -> 0
  in
  let text = ref payload in
  for _ = 1 to 1 + Random.State.int rng 3 do
    let s = !text in
    let n = String.length s in
    let pos = if n > header_end then header_end + Random.State.int rng (n - header_end) else n in
    text :=
      match Random.State.int rng 5 with
      | 0 when pos < n ->
          let c =
            if Random.State.bool rng then alphabet.[Random.State.int rng (String.length alphabet)]
            else Char.chr (Random.State.int rng 256)
          in
          String.mapi (fun i x -> if i = pos then c else x) s
      | 1 when pos < n ->
          let len = min (n - pos) (1 + Random.State.int rng 8) in
          String.sub s 0 pos ^ String.sub s (pos + len) (n - pos - len)
      | 2 -> (
          let line_at p =
            let start =
              match String.rindex_from_opt s (p - 1) '\n' with
              | Some i -> i + 1
              | None -> 0
            in
            let stop =
              match String.index_from_opt s p '\n' with Some i -> i + 1 | None -> n
            in
            (start, stop)
          in
          match (line_at pos, line_at (header_end + Random.State.int rng (n - header_end + 1))) with
          | (a, b), (at, _) when at >= header_end ->
              String.sub s 0 at ^ String.sub s a (b - a) ^ String.sub s at (n - at)
          | _ -> s)
      | _ ->
          let ins = snippets.(Random.State.int rng (Array.length snippets)) in
          String.sub s 0 pos ^ ins ^ String.sub s pos (n - pos)
  done;
  let s = !text in
  (* a sealed payload ends in a newline *)
  if s <> "" && s.[String.length s - 1] = '\n' then s else s ^ "\n"

let test_mutations_agree () =
  let rng = Random.State.make [| 0x5eed |] in
  let dumps = List.map (fun (_, d) -> Io.to_string d) (Lazy.force all_dumps) in
  let dump_payloads = Array.of_list (List.map payload_of dumps) in
  let counts = Hashtbl.create 8 in
  let count k = Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0) in
  for case = 1 to 1500 do
    let base = dump_payloads.(Random.State.int rng (Array.length dump_payloads)) in
    let text = Codec_ref.seal (mutate rng base) in
    expect_agree (Fmt.str "dump mutation %d" case) text;
    count
      (match verdict_new ~salvage:false text with Ok _ -> "accepted" | Error c -> c)
  done;
  (* not vacuous: damage is both tolerated and refused, and the parser
     itself refuses some of it *)
  List.iter
    (fun k ->
      check bool_t (k ^ " cases present") true (Hashtbl.mem counts k))
    [ "accepted"; "malformed" ]

let test_hostile_envelopes_agree () =
  let d = Res_workloads.Truth.coredump (Res_workloads.Workloads.find "div-by-zero") in
  let text = Io.to_string d in
  let payload = payload_of text in
  let lines = Io.count_lines payload and sum = Io.fnv1a32 payload in
  let footers =
    [
      Fmt.str "end %d %d\n" lines sum;
      Fmt.str "end 0%d %d\n" lines sum;
      Fmt.str "end +%d %d\n" lines sum;
      Fmt.str "end %d +%d\n" lines sum;
      Fmt.str "end %d 0%d\n" lines sum;
      Fmt.str "end %d %d junk\n" lines sum;
      Fmt.str "end %d %djunk\n" lines sum;
      Fmt.str "end %d %d \n" lines sum;
      Fmt.str "end  %d %d\n" lines sum;
      Fmt.str "end %d  %d\n" lines sum;
      Fmt.str "end %d\t%d\n" lines sum;
      Fmt.str "end %d %d" lines sum;
      Fmt.str "end %d %d\n\n" lines sum;
      Fmt.str "end %d_0 %d\n" lines sum;
      Fmt.str "end %d\n" lines;
      Fmt.str "end -0 %d\n" sum;
      Fmt.str "end %d -0\n" lines;
      Fmt.str "end %d -%d\n" lines sum;
      Fmt.str "end 4611686018427387904 %d\n" sum;
      Fmt.str "end %d 4611686018427387904\n" lines;
      Fmt.str "end %d 4611686018427387903\n" lines;
      Fmt.str "end -4611686018427387904 %d\n" sum;
      Fmt.str "end %d -4611686018427387904\n" lines;
      Fmt.str "end %d %d\n" (lines + 1) sum;
      Fmt.str "end %d %d\n" lines (sum lxor 1);
      "end 05 1\n";
      "end +5 1\n";
      "end 0x5 1\n";
      "end\n";
      "end \n";
      "end 5 1";
      "END 5 1\n";
    ]
  in
  List.iter (fun f -> expect_agree (Fmt.str "footer %S" f) (payload ^ f)) footers;
  let v1 = "coredump v1" ^ String.sub payload 11 (String.length payload - 11) in
  List.iter
    (fun (what, t) -> expect_agree what t)
    [
      ("empty", "");
      ("blanks", " \n\t\r\012");
      ("header only", "coredump v2");
      ("header line only", "coredump v2\n");
      ("unknown version", "coredump v3\n" ^ String.sub text 12 (String.length text - 12));
      ("header with a trailing space", "coredump v2 \n" ^ String.sub text 12 (String.length text - 12));
      ("v1 without a footer", v1);
      ("v1 with a footer", v1 ^ Fmt.str "end %d %d\n" lines sum);
      ("footer alone", Fmt.str "end %d %d\n" lines sum);
      ("missing final newline", String.sub text 0 (String.length text - 1));
      ("truncated", String.sub text 0 (String.length text / 2));
    ]

(* --- program text: the one-buffer printer against the Format one --- *)

module Ir = Res_ir

let expect_same_text what p =
  check string_t (what ^ ": program text") (Prog_ref.to_string p)
    (Ir.Prog.to_string p)

let test_programs_agree () =
  let progs =
    List.map
      (fun (w : Res_workloads.Truth.t) -> (w.w_name, w.w_prog))
      (Res_workloads.Workloads.all
      @ List.map Res_workloads.Long_exec.workload_n [ 0; 1; 9; 100; 123456789 ]
      @ List.init 3 Res_workloads.Uaf.workload_variant)
    @ [
        ("same-stack race", Res_workloads.Corpus.same_stack_race);
        ("same-stack sign", Res_workloads.Corpus.same_stack_sign);
      ]
    @ List.map
        (fun (r : Res_workloads.Corpus.report) ->
          (Fmt.str "corpus report %d" r.r_id, r.r_prog))
        (Res_workloads.Corpus.generate ~n_per_bug:1 ())
  in
  List.iter
    (fun (what, (p : Ir.Prog.t)) ->
      expect_same_text what p;
      (* the Format wrappers print what the reference printers did *)
      check string_t (what ^ ": Prog.pp") (Fmt.str "%a" Prog_ref.pp p)
        (Fmt.str "%a" Ir.Prog.pp p);
      List.iter
        (fun (f : Ir.Func.t) ->
          check string_t (what ^ ": Func.pp") (Fmt.str "%a" Prog_ref.pp_func f)
            (Fmt.str "%a" Ir.Func.pp f);
          List.iter
            (fun (b : Ir.Block.t) ->
              check string_t (what ^ ": Block.pp")
                (Fmt.str "%a" Prog_ref.pp_block b)
                (Fmt.str "%a" Ir.Block.pp b);
              Array.iter
                (fun i ->
                  check string_t (what ^ ": Instr.pp")
                    (Fmt.str "%a" Prog_ref.pp_instr i)
                    (Fmt.str "%a" Ir.Instr.pp i))
                b.instrs)
            f.blocks)
        p.funcs)
    progs

(* Every instruction and terminator form, once. *)
let every_instr =
  Ir.Instr.
    [
      Const (0, min_int);
      Const (1, max_int);
      Mov (2, 3);
      Binop (Add, 4, 5, 6);
      Binop (Ge, 7, 8, 9);
      Unop (Neg, 10, 11);
      Unop (Not, 10, 11);
      Load (12, 13, -7);
      Store (14, 0, 15);
      Global_addr (16, "g");
      Alloc (17, 18);
      Free (19);
      Input (20, Net);
      Input (21, Rand);
      Lock 22;
      Unlock 23;
      Spawn (24, "worker", []);
      Spawn (25, "worker", [ 1; 2; 3 ]);
      Join 26;
      Call (Some 27, "f", [ 28 ]);
      Call (None, "g", []);
      Call (None, "h", [ 1; 2 ]);
      Assert (29, "");
      Log ("tag", 30);
      Nop;
    ]

let every_byte = String.init 256 Char.chr

let func ?(params = []) name blocks =
  Ir.Func.v ~name ~params ~entry:(List.hd blocks).Ir.Block.label blocks

let test_edge_programs_agree () =
  let long = String.make 100 'x' in
  let main = func "main" [ Ir.Block.v "entry" every_instr Ir.Instr.Halt ] in
  let terms =
    Ir.Instr.
      [
        Ir.Block.v "a" [] (Jmp "b");
        Ir.Block.v "b" [] (Br (1, "a", "c"));
        Ir.Block.v "c" [] (Ret (Some 2));
        Ir.Block.v "d" [] (Ret None);
        Ir.Block.v "e" [ Nop ] Halt;
        Ir.Block.v "f" [] (Abort "boom");
      ]
  in
  let cases =
    [
      ("empty program", Ir.Prog.v ~globals:[] []);
      ("no globals", Ir.Prog.v ~globals:[] [ main ]);
      ( "globals, no functions",
        Ir.Prog.v ~globals:[ { gname = "a"; gsize = 1 }; { gname = "b"; gsize = 9 } ] [] );
      ( "globals and functions",
        Ir.Prog.v ~globals:[ { gname = "a"; gsize = 1 } ] [ main; func "t" terms ] );
      ( "several functions, params",
        Ir.Prog.v ~globals:[]
          [
            main;
            func ~params:[ 0 ] "one" terms;
            func ~params:[ 0; 1; 2; 3 ] "four" terms;
            func ~params:[ 0 ] "last" [ Ir.Block.v "x" [] Ir.Instr.Halt ];
          ] );
      ( "lines over the 78-column margin",
        Ir.Prog.v
          ~globals:[ { gname = long; gsize = max_int } ]
          [
            func ~params:(List.init 40 Fun.id) long
              [
                Ir.Block.v long
                  Ir.Instr.
                    [
                      Call (Some 1, long, List.init 40 Fun.id);
                      Spawn (2, long, List.init 40 (fun i -> i * 1000));
                      Assert (3, long ^ long);
                      Global_addr (4, long);
                    ]
                  (Ir.Instr.Br (5, long, long));
              ];
          ] );
      ( "every string escape",
        Ir.Prog.v ~globals:[]
          [
            func "main"
              [
                Ir.Block.v "entry"
                  Ir.Instr.
                    [
                      Assert (0, every_byte);
                      Assert (1, "q\"b\\s\nt\tr\r\b\000\255 # {}");
                      Log (every_byte, 2);
                      Log ("", 3);
                    ]
                  (Ir.Instr.Abort every_byte);
              ];
          ] );
    ]
  in
  List.iter (fun (what, p) -> expect_same_text what p) cases

(* Random programs over every form: arbitrary names and strings (any
   byte), registers and integers of any size, up to several functions. *)
let gen_prog =
  let open QCheck2.Gen in
  let name = string_size ~gen:(oneofl [ 'a'; 'z'; '_'; '.'; '0' ]) (int_range 1 90) in
  let text = string_size ~gen:char (int_range 0 40) in
  let reg = oneof [ nat; int ] in
  let regs = list_size (int_range 0 45) reg in
  let instr =
    let open Ir.Instr in
    oneof
      [
        map2 (fun r n -> Const (r, n)) reg int;
        map2 (fun r a -> Mov (r, a)) reg reg;
        (let* op = oneofl [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ] in
         map3 (fun r a b -> Binop (op, r, a, b)) reg reg reg);
        map3 (fun op r a -> Unop (op, r, a)) (oneofl [ Not; Neg ]) reg reg;
        map3 (fun r a off -> Load (r, a, off)) reg reg int;
        map3 (fun a off s -> Store (a, off, s)) reg int reg;
        map2 (fun r g -> Global_addr (r, g)) reg name;
        map2 (fun r s -> Alloc (r, s)) reg reg;
        map (fun a -> Free a) reg;
        map2 (fun r k -> Input (r, k)) reg (oneofl [ Net; File; Time; Rand ]);
        map (fun a -> Lock a) reg;
        map (fun a -> Unlock a) reg;
        map3 (fun r f args -> Spawn (r, f, args)) reg name regs;
        map (fun a -> Join a) reg;
        map3 (fun r f args -> Call (r, f, args)) (option reg) name regs;
        map2 (fun r m -> Assert (r, m)) reg text;
        map2 (fun t r -> Log (t, r)) text reg;
        return Nop;
      ]
  in
  let term =
    let open Ir.Instr in
    oneof
      [
        map (fun l -> Jmp l) name;
        map3 (fun r a b -> Br (r, a, b)) reg name name;
        map (fun r -> Ret r) (option reg);
        return Halt;
        map (fun m -> Abort m) text;
      ]
  in
  (* the index keeps labels, functions and globals distinct *)
  let block i =
    map3
      (fun l is t -> Ir.Block.v (Fmt.str "%s%d" l i) is t)
      name (list_size (int_range 0 8) instr) term
  in
  let fn i =
    let* blocks = int_range 1 4 >>= fun n -> flatten_l (List.init n block) in
    map2 (fun f params -> func ~params (Fmt.str "%s%d" f i) blocks) name regs
  in
  let global i =
    map2
      (fun g size -> { Ir.Prog.gname = Fmt.str "%s%d" g i; gsize = size })
      name (int_range 1 max_int)
  in
  let* globals = int_range 0 3 >>= fun n -> flatten_l (List.init n global) in
  let* funcs = int_range 0 4 >>= fun n -> flatten_l (List.init n fn) in
  return (Ir.Prog.v ~globals funcs)

let prop_random_programs_agree =
  QCheck2.Test.make ~name:"random programs print alike" ~count:500 gen_prog
    (fun p -> String.equal (Prog_ref.to_string p) (Ir.Prog.to_string p))

(* --- the load memo: one decode per distinct file content --- *)

(* The memo and its counts are domain-local, so each of these tests
   runs in a domain of its own and starts from an empty memo. *)
let in_fresh_domain f () = Domain.join (Domain.spawn f)

let with_dir f =
  let dir = Filename.temp_dir "res-codec" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let decoded () = (Io.load_counts ()).Io.decoded

let load_ok ?salvage what path =
  match Io.load_result ?salvage path with
  | Ok l -> l
  | Error e -> Alcotest.failf "%s: %s" what (Io.dump_error_to_string e)

(* Every workload and corpus dump saved under three names: each load is
   what decoding its bytes gives, the copies share one decoded dump, and
   only the first copy of each distinct content is decoded. *)
let test_load_copies_shared () =
  with_dir @@ fun dir ->
  let texts = List.map (fun (what, d) -> (what, Io.to_string d)) (Lazy.force all_dumps) in
  List.iteri
    (fun i (what, text) ->
      let loads =
        List.init 3 (fun k ->
            let path = Filename.concat dir (Fmt.str "%02d-%d.core" i k) in
            write path text;
            load_ok what path)
      in
      let first = List.hd loads in
      check bool_t (what ^ ": load = decode of its bytes") true
        (Ok first = Io.of_string_result text);
      List.iter
        (fun (l : Io.loaded) ->
          check bool_t (what ^ ": copies share one dump") true (l.dump == first.dump))
        loads)
    texts;
  let c = Io.load_counts () in
  check Alcotest.int "every file loaded" (3 * List.length texts) c.Io.files;
  check Alcotest.int "one decode per distinct content"
    (List.length (List.sort_uniq compare (List.map snd texts)))
    c.Io.decoded

(* The same damaged bytes (a dump without its footer) under both modes:
   a strict load refuses them every time, also after a salvage load
   kept them, and a salvage load recovers them every time. *)
let test_load_salvage_apart () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "cut.core" in
  List.iter
    (fun (what, d) ->
      let text = Io.to_string d in
      let cut = String.sub text 0 (String.rindex_from text (String.length text - 2) '\n' + 1) in
      write path cut;
      let salvage () =
        match Io.load_result ~salvage:true path with
        | Ok ({ Io.salvaged = Some (Io.Truncated _); _ } as l) ->
            check bool_t (what ^ ": salvage load = salvage decode") true
              (Ok l = Io.of_string_result ~salvage:true cut)
        | Ok _ -> Alcotest.failf "%s: salvaged with no damage reported" what
        | Error e -> Alcotest.failf "%s: not salvaged: %s" what (Io.dump_error_to_string e)
      in
      let strict () =
        match Io.load_result path with
        | Error (Io.Truncated _) -> ()
        | Ok _ -> Alcotest.failf "%s: a strict load accepted a dump without footer" what
        | Error e -> Alcotest.failf "%s: %s" what (Io.dump_error_to_string e)
      in
      salvage ();
      strict ();
      salvage ();
      strict ())
    (Lazy.force all_dumps)

(* One path rewritten with each workload's bytes in turn, twice over:
   every load gives the bytes on disk now, whatever the path held. *)
let test_load_rewritten_path () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "dump.core" in
  let texts = List.map (fun (_, d) -> Io.to_string d) (workload_dumps ()) in
  List.iter
    (fun text ->
      write path text;
      check string_t "a rewritten path loads its new bytes" text
        (Io.to_string (load_ok "rewritten" path).Io.dump))
    (texts @ texts)

(* More than the bound of distinct text after the first dump: the memo
   never holds more than its bound, and the first dump is decoded again.
   A text larger than the bound is decoded on every load. *)
let test_load_memo_bounded () =
  with_dir @@ fun dir ->
  let d = Res_workloads.Truth.coredump (Res_workloads.Workloads.find "counter-race") in
  let text_of steps = Io.to_string { d with Res_vm.Coredump.steps } in
  let first = Filename.concat dir "first.core" and other = Filename.concat dir "other.core" in
  write first (text_of 0);
  ignore (load_ok "first" first);
  ignore (load_ok "first again" first);
  check Alcotest.int "a copy is not decoded again" 1 (decoded ());
  let seen = ref 0 and n = ref 0 in
  while !seen <= Io.memo_bound do
    incr n;
    let text = text_of !n in
    write other text;
    ignore (load_ok "distinct" other);
    seen := !seen + String.length text;
    check bool_t "memo within its bound" true
      ((Io.load_counts ()).Io.memo_bytes <= Io.memo_bound)
  done;
  check Alcotest.int "each distinct text decoded" (1 + !n) (decoded ());
  ignore (load_ok "first after the bound" first);
  check Alcotest.int "the first text was dropped" (2 + !n) (decoded ());
  let mem =
    List.fold_left
      (fun m a -> Res_mem.Memory.write m (1_000_000 + a) a)
      d.Res_vm.Coredump.mem
      (List.init 100_000 Fun.id)
  in
  let big = Io.to_string { d with mem } in
  check bool_t "the big text is over the bound" true (String.length big > Io.memo_bound);
  write other big;
  let held = (Io.load_counts ()).Io.memo_bytes in
  ignore (load_ok "big" other);
  ignore (load_ok "big again" other);
  check Alcotest.int "a text over the bound is never kept" (4 + !n) (decoded ());
  check Alcotest.int "nor counted" held (Io.load_counts ()).Io.memo_bytes

(* A load in one domain is not seen by another. *)
let test_load_memo_per_domain () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "dump.core" in
  write path (Io.to_string (snd (List.hd (workload_dumps ()))));
  ignore (load_ok "here" path);
  let before = Io.load_counts () in
  let there =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (load_ok "there" path);
           Io.load_counts ()))
  in
  check Alcotest.int "another domain decodes it itself" 1 there.Io.decoded;
  check Alcotest.int "another domain counts its own loads" 1 there.Io.files;
  check bool_t "this domain's counts unchanged" true (before = Io.load_counts ())

let () =
  Alcotest.run "codec"
    [
      ( "differential",
        [
          Alcotest.test_case "encoders write the same bytes" `Quick test_encoders_agree;
          Alcotest.test_case "pristine dumps decode alike" `Quick test_pristine_agree;
          Alcotest.test_case "re-sealed mutations decode alike" `Quick
            test_mutations_agree;
          Alcotest.test_case "hostile envelopes classify alike" `Quick
            test_hostile_envelopes_agree;
        ] );
      ( "load memo",
        [
          Alcotest.test_case "copies decoded once and shared" `Quick
            (in_fresh_domain test_load_copies_shared);
          Alcotest.test_case "strict and salvage loads kept apart" `Quick
            (in_fresh_domain test_load_salvage_apart);
          Alcotest.test_case "a rewritten path loads its new bytes" `Quick
            (in_fresh_domain test_load_rewritten_path);
          Alcotest.test_case "memo holds at most its bound" `Quick
            (in_fresh_domain test_load_memo_bounded);
          Alcotest.test_case "each domain has its own memo" `Quick
            (in_fresh_domain test_load_memo_per_domain);
        ] );
      ( "program text",
        [
          Alcotest.test_case "workload and corpus programs print alike" `Quick
            test_programs_agree;
          Alcotest.test_case "edge-case programs print alike" `Quick
            test_edge_programs_agree;
          QCheck_alcotest.to_alcotest prop_random_programs_agree;
        ] );
    ]
