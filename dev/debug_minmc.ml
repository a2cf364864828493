(* Developer probe: time RemoveMinMC on a dense 1c instance per backend. *)
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Algorithms = Cdw_core.Algorithms
module Timing = Cdw_util.Timing

let () =
  let n = int_of_string Sys.argv.(1) in
  let seed = int_of_string Sys.argv.(2) in
  let backend =
    match Sys.argv.(3) with
    | "ilp" -> Cdw_cut.Multicut.Ilp
    | "bnb" -> Cdw_cut.Multicut.Bnb
    | "greedy" -> Cdw_cut.Multicut.Greedy
    | "lp" -> Cdw_cut.Multicut.Lp_rounding
    | _ -> Cdw_cut.Multicut.Auto 5_000.0
  in
  let instance =
    Generator.generate ~seed (Gen_params.dataset1c ~n_constraints:n)
  in
  Printf.printf "instance: %d vertices, %d edges, %d constraints\n%!"
    (Cdw_core.Workflow.n_vertices instance.Generator.workflow)
    (Cdw_core.Workflow.n_edges instance.Generator.workflow)
    n;
  let (o, ms) =
    Timing.time_f (fun () ->
        Algorithms.remove_min_mc ~backend
          ~deadline:(Timing.deadline_after_ms 60_000.0)
          instance.Generator.workflow instance.Generator.constraints)
  in
  Printf.printf "done in %.1f ms, utility %.2f%%, removed %d\n" ms
    (Algorithms.utility_percent o)
    (List.length o.Algorithms.removed)
