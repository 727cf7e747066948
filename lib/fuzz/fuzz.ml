(** Deterministic structured fuzzing for every untrusted byte boundary.

    The system decodes seven kinds of foreign bytes: coredumps,
    batch-triage wire rows, daemon protocol frames, cache entries, IR
    program text, and the debugger's predicate and command grammars.  All
    of them are hostile input by definition — crash reports come from the wild, frames come
    from the network, files come from disks that lie.  Every decoder
    owes the same contract:

    - {b never an uncaught exception} — all failures are typed errors;
    - {b never a hang} — decode time is bounded regardless of input;
    - {b never silent acceptance} — damaged sealed bytes are detected.

    This module drives each decoder with a deterministic, seeded stream
    of cases: pristine seeds built by the real encoders, structured
    mutations of those seeds (bit flips, truncations, splices, integer
    tweaks, re-sealed inflated counts), and raw garbage.  The PRNG is a
    64-bit LCG — no wall clock anywhere in generation, so a run is
    reproducible byte-for-byte from its seed, and the per-format digest
    over (case bytes, decision) is the reproducibility witness.

    A violation is shrunk by greedy chunk deletion to a smaller input
    with the same failure kind and written to a corpus directory as a
    reproducer. *)

module Sealing = Res_core.Sealing
module Io = Res_vm.Coredump_io

(* --- deterministic PRNG --------------------------------------------- *)

(** Knuth's MMIX LCG over int64; the high 31 bits are the draw (low LCG
    bits alternate and must never be used directly). *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int (((seed * 2) + 1) land max_int) }

  let draw t =
    t.s <-
      Int64.add
        (Int64.mul t.s 6364136223846793005L)
        1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical t.s 33)

  let int t bound = if bound <= 0 then 0 else draw t mod bound
  let bool t = int t 2 = 1
  let byte t = Char.chr (int t 256)

  let bytes t n =
    String.init n (fun _ -> byte t)

  let pick t l = List.nth l (int t (List.length l))
end

(* --- violations ------------------------------------------------------ *)

type violation =
  | Uncaught of string  (** an exception escaped the decoder *)
  | Hang of float  (** decode exceeded the per-case deadline (seconds) *)
  | Silent_accept  (** damaged sealed bytes decoded as valid *)
  | Seed_rejected of string  (** a pristine encoder artifact failed decode *)

let violation_name = function
  | Uncaught _ -> "uncaught-exception"
  | Hang _ -> "hang"
  | Silent_accept -> "silent-accept"
  | Seed_rejected _ -> "seed-rejected"

let pp_violation ppf = function
  | Uncaught m -> Fmt.pf ppf "uncaught exception: %s" m
  | Hang s -> Fmt.pf ppf "hang: decode took %.2fs" s
  | Silent_accept -> Fmt.string ppf "silent acceptance of damaged bytes"
  | Seed_rejected m -> Fmt.pf ppf "pristine seed rejected: %s" m

(* --- format descriptors ---------------------------------------------- *)

(** One decode surface under test.  [f_decode] answers "were these bytes
    accepted?" and owes totality — any exception out of it is a
    violation.  [f_sealed] formats are checksummed envelopes: any case
    whose bytes differ from every seed {e must} be rejected.  Unsealed
    text grammars (IR, predicate, command) may accept mutants — only
    crash and hang are violations there.  [f_hostile] is a fixed corpus
    of hand-aimed nasties (depth bombs, inflated counts, overflow
    literals) run ahead of the random stream. *)
type format = {
  f_name : string;
  f_sealed : bool;
  f_seeds : string list;
  f_hostile : string list;
  f_decode : string -> bool;
}

(* --- deadline-wrapped execution -------------------------------------- *)

exception Deadline

(** Hard per-case wall bound: a decoder looping forever is broken out of
    via SIGALRM.  The soft bound below flags decoders that finish but
    take absurdly long for a single frame. *)
let hard_deadline = 5.0

let soft_deadline = 1.0

let set_timer secs =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_value = secs; it_interval = 0. })

let with_deadline f x =
  let prev =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline))
  in
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.;
      Sys.set_signal Sys.sigalrm prev)
    (fun () ->
      set_timer hard_deadline;
      f x)

(** Run one case.  [Ok accepted] when the decoder returned within
    bounds; [Error violation] otherwise. *)
let run_case fmt bytes =
  let t0 = Unix.gettimeofday () in
  match with_deadline fmt.f_decode bytes with
  | accepted ->
      let dt = Unix.gettimeofday () -. t0 in
      if dt > soft_deadline then Error (Hang dt) else Ok accepted
  | exception Deadline -> Error (Hang hard_deadline)
  | exception Stack_overflow -> Error (Uncaught "Stack_overflow")
  | exception exn -> Error (Uncaught (Printexc.to_string exn))

(* --- mutations -------------------------------------------------------- *)

let nasty_ints =
  [
    "-1";
    "0";
    "99999999999999999999";
    string_of_int max_int;
    string_of_int min_int;
    "1073741824";
    "4611686018427387903";
  ]

(* Replace a random digit run with a nasty integer — the mutation that
   attacks length prefixes and count fields specifically. *)
let tweak_int rng s =
  let n = String.length s in
  if n = 0 then s
  else
    let is_digit c = c >= '0' && c <= '9' in
    let starts = ref [] in
    String.iteri
      (fun i c ->
        if is_digit c && (i = 0 || not (is_digit s.[i - 1])) then
          starts := i :: !starts)
      s;
    match !starts with
    | [] -> s
    | l ->
        let start = Rng.pick rng l in
        let stop = ref start in
        while !stop < n && is_digit s.[!stop] do incr stop done;
        String.sub s 0 start ^ Rng.pick rng nasty_ints
        ^ String.sub s !stop (n - !stop)

let mutate_once rng s =
  let n = String.length s in
  if n = 0 then Rng.bytes rng (1 + Rng.int rng 16)
  else
    match Rng.int rng 7 with
    | 0 ->
        (* flip one byte *)
        let i = Rng.int rng n in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + Rng.int rng 255)));
        Bytes.to_string b
    | 1 -> String.sub s 0 (Rng.int rng n) (* truncate *)
    | 2 ->
        (* drop a chunk *)
        let i = Rng.int rng n in
        let len = 1 + Rng.int rng (n - i) in
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
    | 3 ->
        (* insert garbage *)
        let i = Rng.int rng (n + 1) in
        String.sub s 0 i
        ^ Rng.bytes rng (1 + Rng.int rng 16)
        ^ String.sub s i (n - i)
    | 4 ->
        (* duplicate a chunk *)
        let i = Rng.int rng n in
        let len = 1 + Rng.int rng (min 64 (n - i)) in
        String.sub s 0 (i + len) ^ String.sub s i (len + (n - i - len))
    | 5 -> tweak_int rng s
    | _ ->
        (* splice with itself at a random crossover *)
        let i = Rng.int rng n and j = Rng.int rng n in
        String.sub s 0 i ^ String.sub s j (n - j)

let mutate rng s =
  let rec go s k = if k = 0 then s else go (mutate_once rng s) (k - 1) in
  go s (1 + Rng.int rng 3)

(* --- shrinking -------------------------------------------------------- *)

let same_kind a b =
  match (a, b) with
  | Uncaught _, Uncaught _ | Hang _, Hang _ -> true
  | Silent_accept, Silent_accept -> true
  | Seed_rejected _, Seed_rejected _ -> true
  | _ -> false

(** Greedy ddmin-lite: repeatedly delete chunks (halving chunk size)
    while the same violation kind reproduces; bounded by a check budget
    so shrinking a pathological case cannot itself hang the fuzzer.
    Only crash/hang violations shrink — a silent-accept reproducer is
    meaningful only as the exact accepted bytes. *)
let shrink fmt kind bytes =
  match kind with
  | Silent_accept | Seed_rejected _ -> bytes
  | Uncaught _ | Hang _ ->
      let checks = ref 0 in
      let still b =
        incr checks;
        !checks <= 400
        && match run_case fmt b with Error k -> same_kind k kind | Ok _ -> false
      in
      let b = ref bytes in
      let chunk = ref (max 1 (String.length bytes / 2)) in
      while !chunk > 0 do
        let pos = ref 0 in
        while !pos < String.length !b do
          let n = String.length !b in
          let len = min !chunk (n - !pos) in
          let candidate =
            String.sub !b 0 !pos ^ String.sub !b (!pos + len) (n - !pos - len)
          in
          if String.length candidate < n && still candidate then b := candidate
          else pos := !pos + len
        done;
        chunk := !chunk / 2
      done;
      !b

(* --- seed construction ------------------------------------------------ *)

(* Tamper with a sealed artifact and re-seal it: textual surgery on the
   payload with a fresh valid footer, so the case exercises the decoder
   proper, not just the envelope check. *)
let tamper ~header f s =
  match Sealing.validate ~header s with
  | Error _ -> s
  | Ok payload -> Sealing.seal (f payload)

let replace_first ~marker ~sub s =
  match
    let ml = String.length marker in
    let rec find i =
      if i + ml > String.length s then None
      else if String.equal (String.sub s i ml) marker then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ sub
      ^ String.sub s (i + String.length marker) (String.length s - i - String.length marker)

(** Build the format descriptors.  The corpus programs/dumps seed the
    coredump and protocol formats with realistic bytes —
    the same artifacts the system really ships. *)
let formats () =
  let module P = Res_serve.Protocol in
  let module W = Res_parallel.Wire in
  let reports = Res_workloads.Corpus.generate ~n_per_bug:1 () in
  let progs =
    List.map (fun r -> r.Res_workloads.Corpus.r_prog) reports
  in
  let dumps = List.map (fun r -> r.Res_workloads.Corpus.r_dump) reports in
  let prog_texts = List.map Res_ir.Prog.to_string progs in
  let dump_texts = List.map Io.to_string dumps in
  let a_prog = List.hd prog_texts in
  let a_dump = List.hd dump_texts in
  let garbage_bytes = "\x00\x01\xfe\xffgarbage\n\x00" in
  (* -- coredump v2 -- *)
  let coredump =
    {
      f_name = "coredump";
      f_sealed = true;
      f_seeds = dump_texts;
      f_hostile =
        [
          "";
          "coredump v2\n";
          "coredump v2\nend 0 0\n";
          tamper ~header:"coredump v2"
            (fun p -> replace_first ~marker:"steps " ~sub:"steps 99999999999999999999 " p)
            a_dump;
          garbage_bytes;
        ];
      f_decode =
        (fun s ->
          (* salvage mode accepts damage by design: exercised for
             crash/hang only; acceptance is the strict parse *)
          ignore (Io.of_string_result ~salvage:true s);
          Result.is_ok (Io.of_string_result s));
    }
  in
  (* one triage verdict, given as its cache body, seeds every surface
     that carries one *)
  let cache_body = {|verdict "complete" 0 "use-after-free@main" "race on g" 12 3 7|} in
  let verdict = Option.get (Res_cache.Cache.decode_row cache_body) in
  (* ... and one whose text holds the bytes the body codec writes as
     escapes ([\r], [\000], [\ddd] for UTF-8) and must read back *)
  let escaped =
    { verdict with c_bucket = "a\rb\000"; c_cause = "caf\195\169 \000\r" }
  in
  (* -- batch-triage pool replies -- *)
  let wire_batch = W.encode_verdict verdict in
  let wire =
    {
      f_name = "wire";
      f_sealed = true;
      f_seeds = [ wire_batch; W.encode_verdict escaped ];
      f_hostile =
        [
          (* the previous version's frame, which named its unit's row *)
          Sealing.seal (Fmt.str "resbatchres v2\nrow 3\n%s\n" cache_body);
          tamper ~header:W.verdict_header
            (fun p -> replace_first ~marker:"\nverdict" ~sub:"\nrow 3\nverdict" p)
            wire_batch;
          tamper ~header:W.verdict_header
            (fun p -> replace_first ~marker:" 12 " ~sub:" 99999999999999999999 " p)
            wire_batch;
          tamper ~header:W.verdict_header
            (fun p ->
              replace_first ~marker:"\"race on g\"" ~sub:"\"race on g" p)
            wire_batch;
          tamper ~header:W.verdict_header (fun p -> p ^ "trailing\n") wire_batch;
          garbage_bytes;
        ];
      f_decode = (fun s -> Result.is_ok (W.decode_verdict s));
    }
  in
  (* -- serve protocol frames -- *)
  let proto_seeds =
    [
      P.encode_request
        (P.Submit
           {
             sb_prog = a_prog;
             sb_dump = a_dump;
             sb_deadline_ms = Some 1000;
             sb_fuel = None;
           });
      P.encode_request
        (P.Triage
           {
             tg_name = "unit-00";
             tg_prog = a_prog;
             tg_dump = a_dump;
             tg_deadline_ms = None;
             tg_fuel = Some 4000;
           });
      P.encode_request (P.Fetch "req-000017");
      P.encode_request P.Status;
      P.encode_request P.Ping;
      P.encode_reply (P.Accepted { ac_id = "req-000017"; ac_queued = 3 });
      P.encode_reply
        (P.Row { rw_name = "unit-00"; rw_elapsed_ms = 41; rw_verdict = verdict });
      P.encode_reply
        (P.Row { rw_name = "unit-01"; rw_elapsed_ms = 7; rw_verdict = escaped });
      P.encode_reply
        (P.Status_reply
           {
             st_accepted = 10;
             st_completed = 8;
             st_shed = 1;
             st_breaker_rejected = 0;
             st_recovered = 0;
             st_queued = 1;
             st_running = 1;
             st_worker_restarts = 2;
             st_breakers_open = 1;
             st_cache_hits = 4;
             st_draining = false;
             st_breakers = [ ("sig@crash", "open", 3) ];
           });
      P.encode_reply (P.Err "no such id");
    ]
  in
  let proto_status =
    P.encode_reply
      (P.Status_reply
         {
           st_accepted = 1;
           st_completed = 1;
           st_shed = 0;
           st_breaker_rejected = 0;
           st_recovered = 0;
           st_queued = 0;
           st_running = 0;
           st_worker_restarts = 0;
           st_breakers_open = 0;
           st_cache_hits = 0;
           st_draining = false;
           st_breakers = [];
         })
  in
  let protocol =
    {
      f_name = "protocol";
      f_sealed = true;
      f_seeds = proto_seeds;
      f_hostile =
        [
          tamper ~header:P.rep_header
            (fun p -> replace_first ~marker:"breakers 0" ~sub:"breakers 999999999" p)
            proto_status;
          tamper ~header:P.req_header
            (fun p -> replace_first ~marker:"prog " ~sub:"prog 4611686018427387903 " p)
            (List.hd proto_seeds);
          garbage_bytes;
        ];
      f_decode =
        (fun s ->
          Result.is_ok (P.decode_request s) || Result.is_ok (P.decode_reply s));
    }
  in
  (* -- cache entries -- *)
  let cache_seed body =
    Sealing.seal (Res_cache.Cache.header ^ "\n" ^ body ^ "\n")
  in
  let cache =
    {
      f_name = "cache";
      f_sealed = true;
      f_seeds =
        [ cache_seed cache_body; cache_seed (Res_cache.Cache.encode_row escaped) ];
      f_hostile =
        [
          Sealing.seal (Res_cache.Cache.header ^ "\nverdict \"x\" 99999999999999999999\n");
          garbage_bytes;
        ];
      f_decode =
        (fun s ->
          match Sealing.validate ~header:Res_cache.Cache.header s with
          | Error _ -> false
          | Ok payload ->
              (* an entry is "accepted" only if a triage layer would
                 actually consume it: seal valid AND the row decodes.  A
                 sealed-but-unparsable body is an honest miss. *)
              Option.is_some
                Res_cache.Cache.(decode_row (body_of_payload payload)));
    }
  in
  (* -- textual IR programs -- *)
  let ir =
    {
      f_name = "ir";
      f_sealed = false;
      f_seeds = prog_texts;
      f_hostile =
        [
          "";
          "func f() { e: r1 = const 99999999999999999999 halt }";
          "func f() { e: r99999999999999999999 = const 1 halt }";
          "global g 99999999999999999999\n";
          String.make 65536 '{';
          "func f() { e: r1 = const \"";
          garbage_bytes;
        ];
      f_decode = (fun s -> Result.is_ok (Res_ir.Parser.parse_result s));
    }
  in
  (* -- debugger predicate expressions -- *)
  let predicate =
    {
      f_name = "predicate";
      f_sealed = false;
      f_seeds =
        [
          "r1 + 2 * [r3] == 16 && t2:r4 != &counter";
          "(r0 - 1) % 7 >= 0 || [&head + 8] < 0x7fff";
          "-r2";
          "1";
        ];
      f_hostile =
        [
          "";
          "0x";
          "99999999999999999999";
          String.make 50000 '(';
          String.make 50000 '-';
          String.concat "" (List.init 20000 (fun _ -> "[")) ^ "r1";
          "t99999999999999999999:r1";
          garbage_bytes;
        ];
      f_decode = (fun s -> Result.is_ok (Res_debug.Predicate.parse s));
    }
  in
  (* -- debugger command lines -- *)
  let command =
    {
      f_name = "command";
      f_sealed = false;
      f_seeds =
        [
          "step 4";
          "step-back 2";
          "continue";
          "where";
          "regs";
          "threads";
          "print r1 + 2";
          "assert 2 == 1 + 1";
          "goto 0";
          "quit";
        ];
      f_hostile =
        [
          "";
          "print " ^ String.make 50000 '(';
          "assert " ^ String.make 50000 '-';
          "step 99999999999999999999";
          "break 0x";
          garbage_bytes;
        ];
      f_decode = (fun s -> Result.is_ok (Res_debug.Command.parse s));
    }
  in
  [ coredump; wire; protocol; cache; ir; predicate; command ]

let format_names = [ "coredump"; "wire"; "protocol"; "cache"; "ir"; "predicate"; "command" ]

(* --- the campaign ----------------------------------------------------- *)

type finding = {
  fd_case : int;  (** case index within the format's stream *)
  fd_violation : violation;
  fd_bytes : string;  (** shrunk reproducer *)
  fd_path : string option;  (** where the reproducer was written *)
}

type fmt_report = {
  fr_name : string;
  fr_runs : int;  (** cases executed (seeds + hostile + random stream) *)
  fr_accepted : int;
  fr_rejected : int;
  fr_findings : finding list;
  fr_digest : string;
      (** {!Sealing.hash64} chain over (bytes, decision) of every case *)
}

let pp_fmt_report ppf r =
  Fmt.pf ppf "%-11s %7d %9d %9d %10d  %s" r.fr_name r.fr_runs r.fr_accepted
    r.fr_rejected
    (List.length r.fr_findings)
    r.fr_digest

let write_repro ~corpus_dir ~fmt_name ~case ~kind bytes =
  match corpus_dir with
  | None -> None
  | Some dir ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat dir (Fmt.str "%s-case%06d-%s.repro" fmt_name case kind)
      in
      (try
         let oc = open_out_bin path in
         output_string oc bytes;
         close_out oc;
         Some path
       with Sys_error _ -> None)

(** Fuzz one format for [runs] random cases (after its seeds and hostile
    corpus, which always run).  Deterministic given [seed]. *)
let fuzz_format ?corpus_dir ~seed ~runs fmt =
  let rng = Rng.create (seed lxor Hashtbl.hash fmt.f_name) in
  let digest = ref (Sealing.hash64 fmt.f_name) in
  let accepted = ref 0 and rejected = ref 0 and case = ref 0 in
  let findings = ref [] in
  let is_seed b = List.exists (String.equal b) fmt.f_seeds in
  let record_case bytes ~pristine =
    incr case;
    let verdict =
      match run_case fmt bytes with
      | Ok true ->
          incr accepted;
          if fmt.f_sealed && not (is_seed bytes) then Error Silent_accept
          else Ok true
      | Ok false ->
          incr rejected;
          if pristine then Error (Seed_rejected "decoder rejected its encoder's output")
          else Ok false
      | Error v -> Error v
    in
    digest :=
      Sealing.combine64
        [
          !digest;
          Sealing.hash64 bytes;
          (match verdict with Ok true -> 1L | Ok false -> 2L | Error _ -> 3L);
        ];
    match verdict with
    | Ok _ -> ()
    | Error kind ->
        let small = shrink fmt kind bytes in
        let path =
          write_repro ~corpus_dir ~fmt_name:fmt.f_name ~case:!case
            ~kind:(violation_name kind) small
        in
        findings :=
          { fd_case = !case; fd_violation = kind; fd_bytes = small; fd_path = path }
          :: !findings
  in
  List.iter (fun s -> record_case s ~pristine:true) fmt.f_seeds;
  List.iter (fun s -> record_case s ~pristine:false) fmt.f_hostile;
  for _ = 1 to runs do
    let bytes =
      match Rng.int rng 10 with
      | 0 | 1 -> Rng.bytes rng (Rng.int rng 256) (* raw garbage *)
      | _ -> mutate rng (Rng.pick rng fmt.f_seeds)
    in
    record_case bytes ~pristine:false
  done;
  {
    fr_name = fmt.f_name;
    fr_runs = !case;
    fr_accepted = !accepted;
    fr_rejected = !rejected;
    fr_findings = List.rev !findings;
    fr_digest = Printf.sprintf "%016Lx" !digest;
  }

type report = {
  r_seed : int;
  r_formats : fmt_report list;
}

let total_findings r =
  List.fold_left (fun n f -> n + List.length f.fr_findings) 0 r.r_formats

(** Run the whole campaign: every format in [only] (all when empty),
    [runs] random cases each, seeded by [seed]. *)
let run ?corpus_dir ?(only = []) ~seed ~runs () =
  let fmts =
    List.filter
      (fun f -> only = [] || List.mem f.f_name only)
      (formats ())
  in
  if fmts = [] then invalid_arg "Fuzz.run: no such format";
  {
    r_seed = seed;
    r_formats = List.map (fuzz_format ?corpus_dir ~seed ~runs) fmts;
  }

let pp_report ppf r =
  Fmt.pf ppf "@[<v>fuzz seed=%d@,%-11s %7s %9s %9s %10s  %s@," r.r_seed
    "format" "cases" "accepted" "rejected" "violations" "digest";
  List.iter (fun f -> Fmt.pf ppf "%a@," pp_fmt_report f) r.r_formats;
  List.iter
    (fun f ->
      List.iter
        (fun fd ->
          Fmt.pf ppf "VIOLATION %s case %d: %a%a@," f.fr_name fd.fd_case
            pp_violation fd.fd_violation
            Fmt.(option (fmt " (repro: %s)"))
            fd.fd_path)
        f.fr_findings)
    r.r_formats;
  Fmt.pf ppf "total violations: %d@]" (total_findings r)
