(** In-memory spans for the traced run.

    A span records one call into a layer: its name, start, end, the span
    that was open when it started, and the dump it worked on.  Spans are
    kept in memory and written out once the run ends.  A layer's self time
    is its spans' duration minus the time their child spans cover; spans
    nest on one thread, so children never overlap.  The GC counters are
    deltas of [Gc.quick_stat] around each top-level span, i.e. around each
    operation.  With [enabled] false, [run] is a plain call. *)

type t = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  dump : int;  (** -1 when the span is not about one dump *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let minor_words = ref 0.
let major_collections = ref 0

let reset () =
  recorded := [];
  open_spans := [];
  next_id := 0;
  minor_words := 0.;
  major_collections := 0

let run ?(dump = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let gc0 = if parent < 0 then Some (Gc.quick_stat ()) else None in
    open_spans := id :: !open_spans;
    let t0 = Clock.now () in
    let close () =
      let t1 = Clock.now () in
      open_spans := List.tl !open_spans;
      (match gc0 with
      | Some g0 ->
          let g1 = Gc.quick_stat () in
          minor_words := !minor_words +. g1.minor_words -. g0.minor_words;
          major_collections :=
            !major_collections + g1.major_collections - g0.major_collections
      | None -> ());
      recorded := { id; parent; name; dump; t0; t1 } :: !recorded
    in
    Fun.protect ~finally:close f
  end

(** Total self time per span name, in seconds. *)
let self_seconds () =
  let dur s = s.t1 -. s.t0 in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    !recorded;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt by_name name)

(** Write every span as a TSV row: id, parent, name, dump, start, end
    (seconds on the monotonic clock), in the order the spans opened. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tdump\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%.9f\t%.9f\n" s.id s.parent s.name
        s.dump s.t0 s.t1)
    (List.sort (fun a b -> compare a.id b.id) !recorded);
  close_out oc
