(* cdwbench: the benchmark program.

     cdwbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds on inputs generated from the
   seed, checks its outputs, and prints two lines: a context line
   ({"cdwbench": ...}: pinned config, host, state digest, and the
   metrics that are recorded but not gated) and, last, the result line
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1
   they are the per-layer ones, from a separate run with the program's
   spans enabled. README.md describes the workloads. *)

module Json = Cdw_util.Json

(* ledger_wire runs on request but is held back from BENCHMARK.json:
   its resume check fails (see Serve.ledger_wire). *)
let workloads =
  [ "paper_minmc"; "serve_zipf"; "serve_sharded"; "serve_wire"; "ledger_wire" ]

let usage () =
  prerr_endline
    ("usage: cdwbench --workload " ^ String.concat "|" workloads
   ^ "\n                --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := Some (int_of_string n);
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := Some (float_of_string s);
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      let tally = Measure.tally () in
      let run =
        match workload with
        | "paper_minmc" -> Paper.run
        | "serve_zipf" -> Serve.run Serve.serve_zipf
        | "serve_sharded" -> Serve.run Serve.serve_sharded
        | "serve_wire" -> Serve.run Serve.serve_wire
        | _ -> Serve.run Serve.ledger_wire
      in
      let out = run tally ~seed ~seconds ~trace in
      (try
         let context =
           Json.Object
             [
               ( "cdwbench",
                 Json.Object
                   ([
                      ("workload", Json.String workload);
                      ("seed", Json.Number (float_of_int seed));
                      ("trace", Json.Bool trace);
                      ("host", Measure.host ());
                      ("recorded", Catalogue.context_metrics tally out.Catalogue.also);
                    ]
                   @ out.Catalogue.context) );
             ]
         in
         let result = Catalogue.result_line ~trace tally out.Catalogue.values in
         print_endline (Json.to_string ~pretty:false context);
         print_endline (Json.to_string ~pretty:false result)
       with Catalogue.Bad_metric msg ->
         prerr_endline ("cdwbench: no result: " ^ msg);
         exit 1)
  | _ -> usage ()
