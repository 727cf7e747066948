(* The structured fuzzer itself: a deterministic instrument has to be
   tested like one.  Same seed must mean the same byte stream, the same
   accept/reject decisions, and the same digest; a different seed must
   actually explore differently; a bounded run over every sealed codec
   and text grammar must find zero violations (the codecs are the
   hardened product — the fuzzer holding them to it is the regression
   test); and the shrinker must reduce a crashing input to its minimal
   core, because an unshrunk reproducer is barely a reproducer. *)

module Fuzz = Res_fuzz.Fuzz
module Sealing = Res_core.Sealing

let digests (r : Fuzz.report) =
  List.map (fun f -> (f.Fuzz.fr_name, f.Fuzz.fr_digest)) r.Fuzz.r_formats

let decisions (r : Fuzz.report) =
  List.map
    (fun f -> (f.Fuzz.fr_name, f.Fuzz.fr_accepted, f.Fuzz.fr_rejected))
    r.Fuzz.r_formats

let test_same_seed_same_stream () =
  let a = Fuzz.run ~seed:42 ~runs:100 () in
  let b = Fuzz.run ~seed:42 ~runs:100 () in
  Alcotest.(check (list (pair string string)))
    "same seed, same per-format digests" (digests a) (digests b);
  Alcotest.(check (list (triple string int int)))
    "same accept/reject counts" (decisions a) (decisions b)

let test_different_seed_different_stream () =
  let a = Fuzz.run ~seed:1 ~runs:100 () in
  let b = Fuzz.run ~seed:2 ~runs:100 () in
  Alcotest.(check bool)
    "different seeds explore different cases" false
    (List.equal
       (fun (n1, d1) (n2, d2) -> String.equal n1 n2 && String.equal d1 d2)
       (digests a) (digests b))

let test_bounded_run_zero_violations () =
  let r = Fuzz.run ~seed:7 ~runs:300 () in
  List.iter
    (fun f ->
      List.iter
        (fun fd ->
          Alcotest.failf "%s case %d: %a" f.Fuzz.fr_name fd.Fuzz.fd_case
            Fuzz.pp_violation fd.Fuzz.fd_violation)
        f.Fuzz.fr_findings)
    r.Fuzz.r_formats;
  Alcotest.(check int) "zero violations" 0 (Fuzz.total_findings r);
  Alcotest.(check int) "all formats covered"
    (List.length Fuzz.format_names)
    (List.length r.Fuzz.r_formats)

let test_unknown_format_rejected () =
  Alcotest.check_raises "unknown format is an argument error"
    (Invalid_argument "Fuzz.run: no such format") (fun () ->
      ignore (Fuzz.run ~only:[ "no-such-codec" ] ~seed:1 ~runs:1 ()))

(* A decoder that crashes whenever the poison byte is present: the
   shrinker must strip everything else and hand back just the poison. *)
let test_shrinker_minimizes () =
  let fmt =
    {
      Fuzz.f_name = "poison";
      f_sealed = false;
      f_seeds = [];
      f_hostile = [];
      f_decode = (fun s -> if String.contains s 'X' then failwith "boom" else true);
    }
  in
  let noisy = String.make 200 'a' ^ "X" ^ String.make 200 'b' in
  (match Fuzz.run_case fmt noisy with
  | Error (Fuzz.Uncaught _ as kind) ->
      Alcotest.(check string)
        "shrunk to the single poison byte" "X"
        (Fuzz.shrink fmt kind noisy)
  | _ -> Alcotest.fail "poison input must raise");
  (* silent-accepts are never shrunk: the damaged bytes ARE the story *)
  Alcotest.(check string)
    "silent-accept reproducers are kept whole" noisy
    (Fuzz.shrink fmt Fuzz.Silent_accept noisy)

(* The shared bounded-count gate every length-prefixed decode site
   routes through: negatives and inflated counts must be refused before
   any allocation is attempted. *)
let test_bounded_counts () =
  Alcotest.(check (option string)) "zero is fine" None
    (Sealing.count_error ~what:"row" 0);
  Alcotest.(check (option string)) "the cap itself is fine" None
    (Sealing.count_error ~what:"row" Sealing.max_count);
  Alcotest.(check bool) "negative count refused" true
    (Sealing.count_error ~what:"row" (-1) <> None);
  Alcotest.(check bool) "inflated count refused" true
    (Sealing.count_error ~what:"row" (Sealing.max_count + 1) <> None)

(* A sealed artifact whose payload announces more items than the bytes
   carry — resealed so the envelope is valid and the decoder proper has
   to defend itself.  The daemon's status reply counts its breaker rows:
   this is the protocol hostile the fuzzer throws; assert the typed
   outcome here so a regression names itself. *)
let test_inflated_count_is_typed_error () =
  let module P = Res_serve.Protocol in
  let pristine =
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
  Alcotest.(check bool) "pristine status reply round-trips" true
    (Result.is_ok (P.decode_reply pristine));
  let inflated n =
    Fuzz.tamper ~header:P.rep_header
      (fun payload ->
        Fuzz.replace_first ~marker:"breakers 0"
          ~sub:(Fmt.str "breakers %d" n) payload)
      pristine
  in
  Alcotest.(check bool) "tamper produced a distinct artifact" false
    (String.equal (inflated 999999) pristine);
  (match P.decode_reply (inflated 999999) with
  | Ok _ -> Alcotest.fail "inflated breaker count must not decode"
  | Error _ -> ());
  (* past the bound the count itself is refused, before any row is read *)
  let n = Sealing.max_count + 1 in
  Alcotest.(check (result reject string))
    "over-limit count is the bounded-count gate's error"
    (Error (Option.get (Sealing.count_error ~what:"breaker" n)))
    (P.decode_reply (inflated n))

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same digests" `Quick
            test_same_seed_same_stream;
          Alcotest.test_case "different seed, different stream" `Quick
            test_different_seed_different_stream;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bounded run finds zero violations" `Slow
            test_bounded_run_zero_violations;
          Alcotest.test_case "unknown format is refused" `Quick
            test_unknown_format_rejected;
          Alcotest.test_case "shrinker reduces to the minimal core" `Quick
            test_shrinker_minimizes;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "bounded-count gate" `Quick test_bounded_counts;
          Alcotest.test_case "inflated count is a typed error" `Quick
            test_inflated_count_is_typed_error;
        ] );
    ]
