(** The differential harness and the result of every self-test campaign.

    Each speed-up RES carries (static pruning, concrete reverse execution,
    the snapshot index, worker retry) and each fault it survives (killed
    workers, nodes and coordinators, lying nodes, a hostile cache disk)
    must be invisible except in latency.  A campaign
    states that as subjects × variants × projection: every subject is
    projected once under the reference and once under each named variant,
    and the variant's bytes must equal the reference's.  Counts (nodes,
    queries, legs, …) ride along for the report; they are never compared.

    A campaign that checks a contract instead (the perturbed analyses,
    the serve soak) reports {!check} runs: a name, counts, and the
    problems found. *)

type projection = {
  bytes : string;  (** what must be identical across variants *)
  counts : (string * int) list;  (** work figures, reported not compared *)
}

type run = {
  name : string;  (** the subject, or what a check run checked *)
  equivalent : bool;
      (** every variant's bytes equal the reference's (a check run: no
          problem was found) *)
  counts : (string * int) list;
      (** the reference's counts, then each variant's as [variant.key] *)
  detail : string;  (** which variants diverged or raised, and how *)
}

type summary = {
  campaign : string;
  variants : string list;  (** empty for a campaign of check runs *)
  runs : run list;
  total : int;
  ok : int;
  failures : run list;  (** empty iff every run passed *)
}

(** A run checked against a contract rather than a reference: it passes
    iff no [problems] were found. *)
let check ~name ?(counts = []) problems =
  {
    name;
    equivalent = problems = [];
    counts;
    detail = String.concat "; " problems;
  }

(** The summary of a campaign's [runs]; [variants] names what its subject
    runs compared against the reference. *)
let summarize ~campaign ?(variants = []) runs =
  let failures = List.filter (fun r -> not r.equivalent) runs in
  {
    campaign;
    variants;
    runs;
    total = List.length runs;
    ok = List.length runs - List.length failures;
    failures;
  }

let describe = function
  | Failure m -> m
  | exn -> "escaped exception: " ^ Printexc.to_string exn

(* Symbol ids are minted from a global counter: resetting it makes two
   projections of the same subject mint the same ids for the work they
   share. *)
let project f x =
  Res_solver.Expr.reset_counter_for_tests ();
  match f x with p -> Ok p | exception exn -> Error (describe exn)

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let run_subject ~reference ~variants (name, x) =
  match project reference x with
  | Error e -> check ~name [ "reference: " ^ e ]
  | Ok (r : projection) ->
      let counts, problems =
        List.fold_left
          (fun (counts, problems) (v, f) ->
            match project f x with
            | Error e -> (counts, Fmt.str "%s: %s" v e :: problems)
            | Ok (p : projection) ->
                let counts =
                  counts @ List.map (fun (k, n) -> (v ^ "." ^ k, n)) p.counts
                in
                if String.equal p.bytes r.bytes then (counts, problems)
                else
                  ( counts,
                    Fmt.str "%s: diverges from the reference at byte %d" v
                      (first_difference p.bytes r.bytes)
                    :: problems ))
          (r.counts, []) variants
      in
      check ~name ~counts (List.rev problems)

(** Project every subject under [reference] and each of [variants]
    (named), comparing bytes.  Every exception a projection raises is
    caught and recorded as that subject's failure. *)
let run ~campaign ~reference ~variants subjects =
  summarize ~campaign ~variants:(List.map fst variants)
    (List.map (run_subject ~reference ~variants) subjects)

(** A count of a run, 0 when the projection did not report it. *)
let count r key = Option.value (List.assoc_opt key r.counts) ~default:0

let pp_counts = Fmt.(list ~sep:(any " | ") (pair ~sep:(any " ") string int))

let pp_run ppf r =
  Fmt.pf ppf "%-26s %s  %a%s" r.name
    (if r.equivalent then "ok" else "FAILED")
    pp_counts r.counts
    (if r.detail = "" then "" else Fmt.str " (%s)" r.detail)

(** The campaign header, the variants compared against the reference (if
    any), then every count summed across runs (in first-seen order). *)
let pp_summary ppf s =
  let sums =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (k, n) ->
            if List.mem_assoc k acc then
              List.map (fun (k', m) -> if k' = k then (k', m + n) else (k', m)) acc
            else acc @ [ (k, n) ])
          acc r.counts)
      [] s.runs
  in
  Fmt.pf ppf "@[<v>%s: %d/%d run(s) passed" s.campaign s.ok s.total;
  if s.variants <> [] then
    Fmt.pf ppf "@,%d variant(s) against the reference: %s"
      (List.length s.variants) (String.concat ", " s.variants);
  if sums <> [] then Fmt.pf ppf "@,%a" pp_counts sums;
  Fmt.pf ppf "@]"
