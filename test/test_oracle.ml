(* The oracle differential gate: every heuristic in the ladder is held
   against the exact tier — RemoveMinMC's solve path on the exact ILP
   backend of the one lazy-multicut loop (lib/cut/multicut.ml). Its cut
   must be valid (no surviving s→t path) and no heuristic's removal set
   can pay less than its proven optimum. The gate sweeps the paper
   datasets 1a/1b/1c/2/3 and a randomized generator sweep, pins the
   worst observed RemoveMinMC optimality gap, checks approx-lp against
   its claimed L-ratio, and exercises the budget/fallback tier. *)

open Cdw_core
module Dataset2 = Cdw_workload.Dataset2
module Digraph = Cdw_graph.Digraph
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Multicut = Cdw_cut.Multicut

let heuristics =
  [
    Algorithms.Remove_random_edge;
    Algorithms.Remove_first_edge;
    Algorithms.Remove_last_edge;
    Algorithms.Remove_min_cuts;
    Algorithms.Remove_min_mc;
  ]

let solve ?options algo wf cs = Algorithms.solve ?options algo wf cs

(* The worst RemoveMinMC gap seen across every instance the gate
   touches, as a fraction of base utility. Logged at the end and pinned:
   on every instance class we generate, RemoveMinMC has so far been
   empirically optimal, and a regression that opens a gap should fail
   loudly rather than drift. *)
let worst_min_mc_gap = ref 0.0
let worst_min_mc_at = ref "-"

let check_instance label (wf : Workflow.t) (cs : Constraint_set.t) =
  let base = Utility.total wf in
  (* Edge weights of the pristine graph; [solve] works on copies that
     preserve edge ids, so every outcome's removed set indexes into
     this same array. *)
  let w0 = Utility.cut_weights wf in
  let removed_weight (o : Algorithms.outcome) =
    List.fold_left
      (fun acc e -> acc +. w0.(Digraph.edge_id e))
      0.0 o.Algorithms.removed
  in
  let exact = solve Algorithms.Exact_ilp wf cs in
  (match exact.Algorithms.tier with
  | Some "exact-ilp" -> ()
  | t ->
      Alcotest.failf "%s: exact tier %s" label
        (Option.value ~default:"-" t));
  Alcotest.(check bool)
    (label ^ ": exact cut is valid") true
    (Constraint_set.satisfied exact.Algorithms.workflow cs);
  let u_exact = exact.Algorithms.utility_after in
  if u_exact > base +. 1e-6 then
    Alcotest.failf "%s: enforcement grew utility (%.3f > %.3f)" label u_exact
      base;
  let exact_bound =
    match exact.Algorithms.bound with
    | None -> Alcotest.failf "%s: exact outcome carries no bound" label
    | Some b -> b
  in
  List.iter
    (fun algo ->
      let name = Algorithms.to_string algo in
      let o = solve algo wf cs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s cut is valid" label name)
        true
        (Constraint_set.satisfied o.Algorithms.workflow cs);
      (* The oracle's lower-bound property: every valid removal set —
         cut plus its cascade — pays at least the proven optimal cut
         weight. (Utility retained is *not* totally ordered by the cut
         weight because cascades differ, so the dominance claim lives
         in weight space, where the ILP's optimality is a theorem.) *)
      let hw = removed_weight o in
      if hw < exact_bound -. 1e-6 then
        Alcotest.failf "%s: %s pays weight %.3f below the proven optimum %.3f"
          label name hw exact_bound;
      if algo = Algorithms.Remove_min_mc && base > 0.0 then begin
        let gap = (u_exact -. o.Algorithms.utility_after) /. base in
        if gap > !worst_min_mc_gap then begin
          worst_min_mc_gap := gap;
          worst_min_mc_at := label
        end
      end)
    heuristics;
  (* approx-lp: valid, within its claimed ratio of the optimum, and its
     LP lower bound never exceeds the true optimum. *)
  (* Work on a copy: the solvers remove and restore edges on the live
     graph, and the original [wf] should stay pristine for the caller. *)
  let wfc = Workflow.copy wf in
  let w = Utility.cut_weights wfc in
  let weight e = w.(Digraph.edge_id e) in
  let pairs = Constraint_set.pairs cs in
  if pairs <> [] then begin
    let g = Workflow.graph wfc in
    let r_exact = Multicut.solve ~backend:Multicut.Ilp g ~weight ~pairs in
    let r_approx =
      Multicut.solve ~backend:Multicut.Lp_rounding g ~weight ~pairs
    in
    Alcotest.(check (float 1e-6))
      (label ^ ": exact lower bound is its own weight")
      r_exact.Multicut.weight r_exact.Multicut.lower_bound;
    (* The bound the Algorithms tier reported is exactly the optimal
       multicut weight we just recomputed on an identical copy. *)
    Alcotest.(check (float 1e-6))
      (label ^ ": outcome bound is the optimal cut weight")
      r_exact.Multicut.weight exact_bound;
    if
      r_approx.Multicut.weight
      > (r_approx.Multicut.ratio *. r_exact.Multicut.weight) +. 1e-6
    then
      Alcotest.failf "%s: approx-lp weight %.3f breaks its %.0f-ratio vs %.3f"
        label r_approx.Multicut.weight r_approx.Multicut.ratio
        r_exact.Multicut.weight;
    if r_approx.Multicut.lower_bound > r_exact.Multicut.weight +. 1e-6
    then
      Alcotest.failf "%s: approx-lp lower bound %.3f exceeds the optimum %.3f"
        label r_approx.Multicut.lower_bound r_exact.Multicut.weight;
    (* Lazy constraint generation terminates because it runs out of
       violated pairs — one survivor count per round plus the final
       sweep: every round found at least one, the final sweep none. *)
    let violated = r_exact.Multicut.violated in
    Alcotest.(check int)
      (label ^ ": one violated count per round + final sweep")
      (r_exact.Multicut.rounds + 1)
      (List.length violated);
    List.iteri
      (fun i v ->
        let last = i = List.length violated - 1 in
        if last && v <> 0 then
          Alcotest.failf "%s: lazy loop ended with %d violated pairs" label v;
        if (not last) && v < 1 then
          Alcotest.failf "%s: lazy round %d added no path" label i)
      violated
  end

(* ---------------------------------------------------------------- *)
(* Paper datasets                                                     *)

let test_paper_datasets () =
  let seed = 42 in
  let datasets =
    [
      ("1a", Generator.generate ~seed (Gen_params.dataset1a ~n_constraints:6));
      ("1b", Generator.generate ~seed (Gen_params.dataset1b ~n_constraints:6));
      ("1c", Generator.generate ~seed (Gen_params.dataset1c ~n_constraints:6));
      ("2", Dataset2.base ~seed ());
      ("3", Generator.generate ~seed (Gen_params.dataset3 ~n_vertices:300));
    ]
  in
  List.iter
    (fun (name, (inst : Generator.t)) ->
      check_instance ("dataset " ^ name) inst.Generator.workflow
        inst.Generator.constraints)
    datasets

(* ---------------------------------------------------------------- *)
(* Randomized generator sweep: 50 instances × 3 seed streams.         *)

let test_random_sweep () =
  List.iter
    (fun stream ->
      for i = 0 to 49 do
        let seed = (stream * 1000) + i in
        let inst = Test_helpers.random_instance ~seed in
        check_instance
          (Printf.sprintf "sweep seed %d" seed)
          inst.Generator.workflow inst.Generator.constraints
      done)
    [ 7; 21; 99 ];
  Printf.printf "oracle gate: worst RemoveMinMC gap %.6f%% (at %s)\n"
    (100.0 *. !worst_min_mc_gap)
    !worst_min_mc_at;
  (* The pin: RemoveMinMC has been exactly optimal on every generated
     instance. If this ever fires, either the generator changed (fine —
     re-pin with the logged gap) or a solver regressed (not fine). *)
  Alcotest.(check bool)
    "worst RemoveMinMC gap stays at its pinned 0%" true
    (!worst_min_mc_gap <= 1e-9)

(* ---------------------------------------------------------------- *)
(* Exact = brute force on small instances                             *)

let test_exact_matches_brute_force () =
  for seed = 1 to 25 do
    let inst =
      Generator.generate ~seed
        {
          (Gen_params.dataset1a ~n_constraints:4) with
          Gen_params.n_vertices = 25;
          stages = 4;
        }
    in
    let wf = inst.Generator.workflow in
    let cs = inst.Generator.constraints in
    let bf = solve Algorithms.Brute_force wf cs in
    let e = solve Algorithms.Exact_ilp wf cs in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "seed %d: exact-ilp = brute force" seed)
      bf.Algorithms.utility_after e.Algorithms.utility_after
  done

(* ---------------------------------------------------------------- *)
(* Budget exhaustion falls back to the heuristic ladder               *)

let test_budget_fallback () =
  let inst = Generator.generate ~seed:9 (Gen_params.dataset1a ~n_constraints:6) in
  let wf = inst.Generator.workflow in
  let cs = inst.Generator.constraints in
  (* A zero solver budget expires before the first ILP round: the tier
     must answer with RemoveMinMC and say so, not raise. *)
  let options =
    {
      Algorithms.Options.default with
      Algorithms.Options.solver_budget_ms = Some 0.0;
    }
  in
  let o = solve ~options Algorithms.Exact_ilp wf cs in
  Alcotest.(check (option string))
    "fallback tier recorded"
    (Some "fallback:remove-min-mc")
    o.Algorithms.tier;
  Alcotest.(check bool) "fallback cut is valid" true
    (Constraint_set.satisfied o.Algorithms.workflow cs);
  Alcotest.(check bool) "no bound claimed on fallback" true
    (o.Algorithms.bound = None);
  (* Same exhaustion through the node budget. *)
  let options =
    {
      Algorithms.Options.default with
      Algorithms.Options.node_budget = Some 0;
    }
  in
  let o = solve ~options Algorithms.Exact_ilp wf cs in
  Alcotest.(check (option string))
    "node-budget fallback tier recorded"
    (Some "fallback:remove-min-mc")
    o.Algorithms.tier;
  Alcotest.(check bool) "node-budget fallback cut is valid" true
    (Constraint_set.satisfied o.Algorithms.workflow cs);
  (* An ample budget answers on the exact tier. *)
  let options =
    {
      Algorithms.Options.default with
      Algorithms.Options.solver_budget_ms = Some 60_000.0;
    }
  in
  let o = solve ~options Algorithms.Exact_ilp wf cs in
  Alcotest.(check (option string))
    "ample budget stays exact" (Some "exact-ilp") o.Algorithms.tier

(* The budget fallback must not re-run the ILP it just exhausted: on
   the dense 1c instance that defeats the ILP (|N| = 30, seed 1), a
   250 ms exact-tier budget answers from the fallback tier well inside
   2 s, with the utility RemoveMinMC itself settles for there — its
   [Auto] budget expires too and it answers from greedy. *)
let test_fallback_is_cheap () =
  let inst =
    Generator.generate ~seed:1 (Gen_params.dataset1c ~n_constraints:30)
  in
  let wf = inst.Generator.workflow in
  let cs = inst.Generator.constraints in
  let options =
    {
      Algorithms.Options.default with
      Algorithms.Options.solver_budget_ms = Some 250.0;
    }
  in
  let o, ms =
    Cdw_util.Timing.time_f (fun () -> solve ~options Algorithms.Exact_ilp wf cs)
  in
  Alcotest.(check (option string))
    "fallback tier recorded"
    (Some "fallback:remove-min-mc")
    o.Algorithms.tier;
  if ms >= 2_000.0 then
    Alcotest.failf "fallback took %.0f ms (budget 250 ms)" ms;
  let greedy = Algorithms.remove_min_mc ~backend:Multicut.Greedy wf cs in
  Alcotest.(check (float 1e-9))
    "fallback utility = RemoveMinMC's greedy answer"
    greedy.Algorithms.utility_after o.Algorithms.utility_after;
  Alcotest.(check (float 0.005))
    "utility retained as RemoveMinMC's budget-bound answer" 46.29
    (Algorithms.utility_percent o)

let suite =
  [
    Alcotest.test_case "paper datasets 1a/1b/1c/2/3 vs the oracle" `Quick
      test_paper_datasets;
    Alcotest.test_case "randomized sweep (150 instances) vs the oracle" `Slow
      test_random_sweep;
    Alcotest.test_case "exact-ilp = brute force (small instances)" `Quick
      test_exact_matches_brute_force;
    Alcotest.test_case "budget exhaustion falls back to RemoveMinMC" `Quick
      test_budget_fallback;
    Alcotest.test_case "budget fallback does not re-run the ILP" `Quick
      test_fallback_is_cheap;
  ]
