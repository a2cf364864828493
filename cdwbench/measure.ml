(* Timers, sample statistics, the failure tally and the JSON lines the
   benchmark prints. *)

module Json = Cdw_util.Json
module Trace = Cdw_obs.Trace
module Trace_summary = Cdw_obs.Trace_summary

let now = Unix.gettimeofday

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Samples sorted ascending, for [quantile]. *)
let sorted v =
  let a = Cdw_util.Vec.to_array v in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array; nan when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The fast quartile of repeated timings: the lower quartile of times,
   the upper quartile of rates. A shared host's CPU speed can switch
   between a fast and a slow mode every few seconds (on a 2-vCPU Xeon
   VM, a fixed loop took 0.20 s or 0.27-0.31 s, each about half the
   time), so a median of repeats flips between the modes from run to
   run, and a figure pooled over repeats rests on the share of slow
   ones; the fast quartile stays in the fast mode. Used for serving
   trials, each of which spans several mode switches. *)
let fast_quartile ~higher_is_better xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile a (if higher_is_better then 0.75 else 0.25)

(* The least of repeated times. Used for the paper instances, whose
   solves (0.1-450 ms) are short next to the host's modes: the slow
   mode only ever lengthens a solve, and the same host has held it for
   half a minute, so even the fast quartile of a run's 20-25 solves of
   an instance can land in it, while one solve in the fast mode is
   enough for the least. *)
let fastest xs = List.fold_left Float.min infinity xs

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs = exp (Cdw_util.Stats.mean (List.map log xs))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Failed operations against attempted ones. Every output check adds to
   [attempted]; a failing check also adds to [failed] and prints its
   reason on stderr, so a run reports its failures instead of
   aborting. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reported : int;
}

let tally () = { attempted = 0; failed = 0; reported = 0 }

let attempt ?(n = 1) t = t.attempted <- t.attempted + n

let fail ?(n = 1) t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + n;
      t.reported <- t.reported + 1;
      if t.reported <= 20 then prerr_endline ("cdwbench: FAILED " ^ msg))
    fmt

(* One check: attempted once, failed once when [ok] is false. *)
let check t ok fmt =
  attempt t;
  Printf.ksprintf (fun msg -> if not ok then fail t "%s" msg) fmt

(* The host and build a result came from, recorded beside every pinned
   config so that comparisons across hosts fail instead of passing. *)
let host () =
  Json.Object
    [
      ("nproc", Json.Number (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.String Sys.ocaml_version);
      ("os", Json.String Sys.os_type);
      ("word_size", Json.Number (float_of_int Sys.word_size));
    ]

(* Hex MD5 of a canonical text rendering of a run's final states. *)
let digest text = Digest.to_hex (Digest.string text)

(* Run [f] with tracing on, from an empty trace; returns its result and
   the exported trace. The buffer is sized so that a whole traced pass
   fits ([obs.trace_dropped] reports it if not). *)
let traced f =
  Trace.set_capacity 4_000_000;
  Trace.reset ();
  Trace.set_enabled true;
  let x = Fun.protect ~finally:(fun () -> Trace.set_enabled false) f in
  (x, Trace.export ())

(* Per span name: (count, total ms), from the program's own spans. *)
let span_table trace =
  match Trace_summary.of_json trace with
  | Error e -> failwith ("trace summary: " ^ e)
  | Ok report ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (r : Trace_summary.row) ->
          Hashtbl.replace tbl r.Trace_summary.name
            (r.Trace_summary.count, r.Trace_summary.total_ms))
        report.Trace_summary.rows;
      tbl

let span_ms tbl name =
  match Hashtbl.find_opt tbl name with Some (_, ms) -> ms | None -> 0.0

let span_count tbl name =
  match Hashtbl.find_opt tbl name with Some (n, _) -> n | None -> 0

(* Recursive delete of a benchmark scratch directory. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Total bytes of the regular files under [path], and those named
   [only] when given. *)
let rec du ?only path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + du ?only (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (
      match only with
      | Some name when Filename.basename path <> name -> 0
      | _ -> st_size)
  | _ -> 0

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6
