module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach
module Multicut = Cdw_cut.Multicut

let check_float = Alcotest.(check (float 1e-6))

let unit_weight _ = 1.0

(* Fig. 4 of the paper as a pure multicut instance. *)
let fig4 () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 5);
  (* 0=s1 1=s2 2=v1 3=t1 4=t2 *)
  ignore (Digraph.add_edge g 0 2);
  ignore (Digraph.add_edge g 1 2);
  ignore (Digraph.add_edge g 2 3);
  ignore (Digraph.add_edge g 2 4);
  g

let test_single_pair_is_min_cut () =
  let g = fig4 () in
  let weight e =
    match (Digraph.edge_src e, Digraph.edge_dst e) with
    | 0, 2 -> 10.0
    | _ -> 3.0
  in
  let r = Multicut.solve g ~weight ~pairs:[ (0, 3) ] in
  check_float "weight" 3.0 r.Multicut.weight;
  Alcotest.(check int) "one edge" 1 (List.length r.Multicut.edges);
  Alcotest.(check bool) "is a multicut" true
    (Multicut.is_multicut g r.Multicut.edges ~pairs:[ (0, 3) ])

let test_shared_edge_two_pairs () =
  let g = fig4 () in
  (* Cutting (s1,v1) once (weight 5) beats cutting both out-edges (2×3). *)
  let weight e =
    match (Digraph.edge_src e, Digraph.edge_dst e) with
    | 0, 2 -> 5.0
    | _ -> 3.0
  in
  let r = Multicut.solve g ~weight ~pairs:[ (0, 3); (0, 4) ] in
  check_float "weight" 5.0 r.Multicut.weight;
  Alcotest.(check (list (pair int int))) "the shared edge"
    [ (0, 2) ]
    (List.map (fun e -> (Digraph.edge_src e, Digraph.edge_dst e)) r.Multicut.edges)

let test_already_disconnected () =
  let g = fig4 () in
  let r = Multicut.solve g ~weight:unit_weight ~pairs:[ (3, 0) ] in
  Alcotest.(check int) "empty cut" 0 (List.length r.Multicut.edges);
  Alcotest.(check int) "zero rounds" 0 r.Multicut.rounds

let test_graph_not_mutated () =
  let g = fig4 () in
  let before = Test_helpers.live_edge_ids g in
  ignore (Multicut.solve g ~weight:unit_weight ~pairs:[ (0, 3); (1, 4) ]);
  Alcotest.(check (list int)) "graph untouched" before (Test_helpers.live_edge_ids g)

let test_invalid_pair () =
  let g = fig4 () in
  Alcotest.check_raises "s = t" (Invalid_argument "Multicut.solve: pair with s = t")
    (fun () -> ignore (Multicut.solve g ~weight:unit_weight ~pairs:[ (2, 2) ]))

let random_pairs rng g k =
  let n = Digraph.n_vertices g in
  List.init k (fun _ ->
      let s = Cdw_util.Splitmix.int rng (n - 1) in
      let t = s + 1 + Cdw_util.Splitmix.int rng (n - s - 1) in
      (s, t))

let weight_of_seed seed e =
  float_of_int (1 + (Hashtbl.hash (seed, Digraph.edge_id e) mod 9))

let prop_backends =
  Test_helpers.qcheck ~count:60
    "all backends feasible; exact backends agree and dominate"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 5 + Cdw_util.Splitmix.int rng 10 in
      let g = Test_helpers.random_dag ~seed ~n ~density:0.3 in
      let pairs = random_pairs rng g (1 + Cdw_util.Splitmix.int rng 3) in
      let weight = weight_of_seed seed in
      let solve backend = Multicut.solve ~backend g ~weight ~pairs in
      let ilp = solve Multicut.Ilp in
      let bnb = solve Multicut.Bnb in
      let greedy = solve Multicut.Greedy in
      let lp = solve Multicut.Lp_rounding in
      List.for_all
        (fun r -> Multicut.is_multicut g r.Multicut.edges ~pairs)
        [ ilp; bnb; greedy; lp ]
      && Float.abs (ilp.Multicut.weight -. bnb.Multicut.weight) < 1e-6
      && ilp.Multicut.weight <= greedy.Multicut.weight +. 1e-6
      && ilp.Multicut.weight <= lp.Multicut.weight +. 1e-6
      && ilp.Multicut.exact && bnb.Multicut.exact
      && (not greedy.Multicut.exact)
      && not lp.Multicut.exact)

(* Exactness cross-check against explicit enumeration of all edge
   subsets on tiny graphs. *)
let prop_exact_vs_enumeration =
  Test_helpers.qcheck ~count:40 "ILP backend matches subset enumeration"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 4 + Cdw_util.Splitmix.int rng 3 in
      let g = Test_helpers.random_dag ~seed ~n ~density:0.4 in
      let m = Digraph.n_edges_total g in
      if m > 12 then true (* keep enumeration cheap *)
      else begin
        let pairs = random_pairs rng g 2 in
        let weight = weight_of_seed seed in
        let best = ref infinity in
        for mask = 0 to (1 lsl m) - 1 do
          let edges =
            List.filter_map
              (fun id ->
                if mask land (1 lsl id) <> 0 then Some (Digraph.edge g id)
                else None)
              (List.init m Fun.id)
          in
          if Multicut.is_multicut g edges ~pairs then begin
            let w = List.fold_left (fun acc e -> acc +. weight e) 0.0 edges in
            if w < !best then best := w
          end
        done;
        let r = Multicut.solve g ~weight ~pairs in
        Float.abs (r.Multicut.weight -. !best) < 1e-6
      end)

(* [Auto] forgives an exhausted budget or a stuck simplex, nothing
   else: a [Failure] raised inside its ILP phase (here by the weight
   function, once, on the ILP's own scaling pass) must propagate
   instead of silently answering from greedy. *)
let test_auto_propagates_failure () =
  let g = fig4 () in
  let n = Digraph.n_edges g in
  let calls = ref 0 in
  let weight _ =
    incr calls;
    if !calls = n + 1 then failwith "weight bug";
    1.0
  in
  Alcotest.check_raises "foreign Failure propagates" (Failure "weight bug")
    (fun () ->
      ignore
        (Multicut.solve ~backend:(Multicut.Auto 5_000.0) g ~weight
           ~pairs:[ (0, 3) ]))

let suite =
  [
    Alcotest.test_case "single pair reduces to min cut" `Quick
      test_single_pair_is_min_cut;
    Alcotest.test_case "shared edge across two pairs" `Quick
      test_shared_edge_two_pairs;
    Alcotest.test_case "already disconnected pairs" `Quick test_already_disconnected;
    Alcotest.test_case "input graph not mutated" `Quick test_graph_not_mutated;
    Alcotest.test_case "invalid pair rejected" `Quick test_invalid_pair;
    Alcotest.test_case "Auto propagates a foreign Failure" `Quick
      test_auto_propagates_failure;
    prop_backends;
    prop_exact_vs_enumeration;
  ]
