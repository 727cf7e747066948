(** Wall time from the monotonic clock, and the order statistics the
    benchmark reports. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** The machine's speed, from a fixed probe.

    This shared two-core machine's speed drifts by up to a quarter from
    one minute to the next with its neighbours' load, and every timing
    drifts with it, in the same direction.  The probe is fixed pure-OCaml
    work like the pipeline's own (persistent-map inserts and lookups, so
    allocation and minor collections); it runs before every sample, and
    the run's timings are scaled by {!scale}: they read as on a machine
    where the probe takes {!reference_probe_s}.  The probe is not the
    program's code, so a change to the program moves the scaled figures
    in the same proportion as the raw ones. *)
let reference_probe_s = 0.0165

module IMap = Map.Make (Int)

let probe () =
  let m = ref IMap.empty and s = ref 0 in
  for i = 0 to 24_999 do
    m := IMap.add ((i * 7919) land 0xffff) i !m;
    s := !s + Option.value ~default:0 (IMap.find_opt ((i * 104_729) land 0xffff) !m)
  done;
  ignore (Sys.opaque_identity !s)

let probes = ref []
let run_probe () = probes := snd (time probe) :: !probes

(** Multiply a time by this (divide a rate) to scale it to the reference
    machine speed. *)
let scale () =
  let a = Array.of_list !probes in
  Array.sort compare a;
  reference_probe_s /. a.(Array.length a / 2)

(** Nearest-rank percentile, [p] in (0, 1].  Refuses a percentile with
    fewer than ten samples beyond it: such a figure is one or two
    outliers, not a tail. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n - rank < 10 then
    failwith
      (Printf.sprintf "p%.0f needs ten samples beyond it; only %d samples"
         (p *. 100.) n);
  a.(max 0 (rank - 1))

(** The median, defined for any non-empty sample (the set-up median is
    taken over a handful of repetitions). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The process's resident-set high-water mark ([VmHWM]), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
