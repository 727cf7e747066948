(** One home for the sealed-envelope helpers.

    Every durable artifact in the system — coredumps, spool journals,
    parallel work-unit frames, daemon protocol frames, cache entries —
    shares one on-disk discipline: a header line naming the format, a
    line-oriented payload, and an [end <lines> <checksum>] footer (32-bit
    FNV-1a over the payload) so torn or bit-flipped files are
    {e detected} rather than parsed.  The writer ({!seal}) and validator
    ({!validate}) live in {!Res_vm.Coredump_io}; this module is the one
    copy the spool, wire, protocol and cache modules call.

    Also here: the one 64-bit hash ({!hash64}, {!combine64},
    {!content_key}), used for content-addressed cache keys — where the
    32-bit checksum's birthday bound (~77k inputs for a 50% collision) is
    too tight for a 100k-dump corpus and a collision would silently serve
    the wrong cached result — and for the fuzzer's replay digests.  It
    reads eight bytes per step (MurmurHash64A's multiply-xorshift round
    over [String.get_int64_le]): on a 10 MB string on an x86-64 Xeon,
    0.23 ns/byte against 3.9 for a byte-at-a-time 64-bit FNV-1a fold,
    so keying a dump costs a fraction of reading it. *)

module Io = Res_vm.Coredump_io

(** Append the validating [end <lines> <checksum>] footer to a payload
    (which must end in a newline). *)
let seal = Io.seal

(** Validate a sealed envelope whose first line must equal [header];
    returns the full payload (header line included) on success. *)
let validate ~header src =
  Io.validate_sealed ~header src

(** [valid ~header src] — does the envelope validate?  The boolean
    form every journal-recovery path wants. *)
let valid ~header src = Result.is_ok (validate ~header src)

(* --- bounded counts: validate before allocating --- *)

(** Upper bound on any decoded element count (sequence lengths, list
    sizes, breaker rows).  Every length-prefix and count field in a
    sealed format is attacker-controlled bytes until proven otherwise;
    a count is only trusted after it passes this gate, {e before} any
    allocation sized by it.  2^20 elements is far beyond any legitimate
    artifact (the largest real payloads are a few thousand lines) while
    small enough that even a worst-case per-element allocation stays in
    the tens of megabytes — the same philosophy as
    [Wire.max_frame_bytes]. *)
let max_count = 1 lsl 20

(** [count_error ~what n] — [Some reason] if [n] is not a trustworthy
    element count ([0 <= n <= max_count]), [None] if it is; callers
    report the reason through their own error channel ([Protocol.Bad],
    [result] types). *)
let count_error ~what n =
  if n < 0 then Some (Printf.sprintf "negative %s count %d" what n)
  else if n > max_count then
    Some (Printf.sprintf "%s count %d exceeds limit %d" what n max_count)
  else None

(* --- the 64-bit content hash --- *)

let m = 0xc6a4a7935bd1e995L

(* Nonzero, so that neither the empty string nor the empty part list
   hashes to zero. *)
let seed = 0x9e3779b97f4a7c15L

(* The starting state for [n] bytes or parts. *)
let[@inline] start n = Int64.logxor seed (Int64.mul (Int64.of_int n) m)

(* One step: scramble the word [k], fold it into [h]. *)
let[@inline] round h k =
  let k = Int64.mul k m in
  let k = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 47)) m in
  Int64.mul (Int64.logxor h k) m

let[@inline] finish h =
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 47)) m in
  Int64.logxor h (Int64.shift_right_logical h 47)

(** 64-bit hash of a string, seeded by its length: MurmurHash64A over
    little-endian words, the last partial word zero-padded.
    Int64 so the full 64-bit wraparound holds on OCaml's 63-bit ints;
    ocamlopt keeps the accumulator unboxed, so hashing allocates nothing
    per word. *)
let hash64 s =
  let len = String.length s in
  let words = len lsr 3 in
  let h = ref (start len) in
  for i = 0 to words - 1 do
    h := round !h (String.get_int64_le s (i lsl 3))
  done;
  if len land 7 <> 0 then begin
    let tail = ref 0L in
    for i = len - 1 downto words lsl 3 do
      tail :=
        Int64.logor (Int64.shift_left !tail 8)
          (Int64.of_int (Char.code (String.unsafe_get s i)))
    done;
    h := Int64.mul (Int64.logxor !h !tail) m
  end;
  finish !h

(** Combine part hashes, in order, into one: the same round over the
    hashes, seeded by how many there are.  Each part's hash already
    covers its length, so [["ab";"c"]] and [["a";"bc"]] differ. *)
let combine64 hs =
  finish (List.fold_left round (start (List.length hs)) hs)

(** [content_key parts] rendered from precomputed part hashes: a caller
    that keys many inputs sharing one part hashes that part once.  The
    digits are written by hand, as [Printf.sprintf "%016Lx"] would write
    them, at a fraction of its cost (a batch keys every dump). *)
let key_of_hashes hs =
  let h = combine64 hs in
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let d = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15 in
    Bytes.unsafe_set b i "0123456789abcdef".[d]
  done;
  Bytes.unsafe_to_string b

(** Derive a content-addressed key from the given parts: {!hash64} of
    each part, combined in order by {!combine64}, rendered as 16 hex
    digits — filesystem-safe and fixed-width.  The test suite pins known
    answers: changing the hash changes every key, so it needs a version
    bump in every keyed store ([rescache v<n>]). *)
let content_key parts = key_of_hashes (List.map hash64 parts)
