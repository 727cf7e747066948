(* Generated triage verdicts for the codec round-trip tests (cache body,
   pool reply frame, daemon [Row] reply).  Bucket and cause mix plain
   text with the pieces an escaper or an envelope could mangle: empty
   strings, quotes, backslashes, tabs, newlines, CR, NUL, UTF-8 bytes, a
   line that looks like a seal footer.  Counters run up to [max_int].
   The stream is seeded, so every run checks the same verdicts. *)

module Cache = Res_cache.Cache

let pieces =
  [ ""; "\""; "\\"; "\t"; "\n"; "\\\""; "\"\""; "\\n"; " "; "end 3 12345\n"; "verdict";
    "a\rb"; "\000"; "caf\195\169"; "\\195" ]

let text =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 6)
         (oneof
            [ oneofl pieces; string_size ~gen:printable (int_bound 8) ])))

let counter =
  QCheck.Gen.(oneof [ int_bound 1000; int_range 0 max_int; return max_int ])

let verdict =
  QCheck.Gen.(
    map
      (fun ((c_outcome, c_timeout, c_bucket, c_cause), (c_nodes, c_pruned, c_queries)) ->
        { Cache.c_outcome; c_timeout; c_bucket; c_cause; c_nodes; c_pruned; c_queries })
      (pair
         (quad (oneofl [ "complete"; "partial"; "failed" ]) bool text text)
         (triple counter counter counter)))

(** [n] verdicts from a fixed seed. *)
let generate n =
  QCheck.Gen.generate ~rand:(Random.State.make [| 16 |]) ~n verdict

let pp ppf v = Fmt.string ppf (Cache.encode_row v)
let testable = Alcotest.testable pp ( = )
