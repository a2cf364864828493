open Simplex

let check_float = Alcotest.(check (float 1e-6))

let solve_exn p =
  match Ilp.solve p with
  | Ilp.Optimal { x; objective_value } -> (x, objective_value)
  | Ilp.Infeasible -> Alcotest.fail "unexpected Infeasible"

(* min 3a + 2b + 2c  s.t.  a+b ≥ 1, b+c ≥ 1, a+c ≥ 1: pick b and c. *)
let test_vertex_cover_triangle () =
  let p =
    {
      objective = [| 3.0; 2.0; 2.0 |];
      constraints =
        [
          ([| 1.0; 1.0; 0.0 |], Ge, 1.0);
          ([| 0.0; 1.0; 1.0 |], Ge, 1.0);
          ([| 1.0; 0.0; 1.0 |], Ge, 1.0);
        ];
    }
  in
  let x, value = solve_exn p in
  check_float "cost" 4.0 value;
  Alcotest.(check (array bool)) "solution" [| false; true; true |] x

(* A case where the LP relaxation is fractional (x = 1/2 everywhere)
   and branching is required. *)
let test_fractional_forces_branching () =
  let p =
    {
      objective = [| 1.0; 1.0; 1.0 |];
      constraints =
        [
          ([| 1.0; 1.0; 0.0 |], Ge, 1.0);
          ([| 0.0; 1.0; 1.0 |], Ge, 1.0);
          ([| 1.0; 0.0; 1.0 |], Ge, 1.0);
        ];
    }
  in
  let _, value = solve_exn p in
  (* LP optimum is 1.5; the integer optimum needs two variables. *)
  check_float "integer cost 2" 2.0 value

let test_infeasible () =
  (* x1 + x2 = 3 cannot hold with binary variables. *)
  let p =
    { objective = [| 1.0; 1.0 |]; constraints = [ ([| 1.0; 1.0 |], Eq, 3.0) ] }
  in
  match Ilp.solve p with
  | Ilp.Infeasible -> ()
  | Ilp.Optimal _ -> Alcotest.fail "expected Infeasible"

let test_le_constraints () =
  (* Binary knapsack-as-ILP: max 5a + 4b + 3c s.t. 2a + 3b + c ≤ 3
     (minimise the negation) → a + c = 8. *)
  let p =
    {
      objective = [| -5.0; -4.0; -3.0 |];
      constraints = [ ([| 2.0; 3.0; 1.0 |], Le, 3.0) ];
    }
  in
  let x, value = solve_exn p in
  check_float "knapsack value" (-8.0) value;
  Alcotest.(check (array bool)) "take a and c" [| true; false; true |] x

(* Exhaustive cross-check on random small covering ILPs. *)
let brute_force_best objective sets =
  let n = Array.length objective in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen j = mask land (1 lsl j) <> 0 in
    let covers =
      List.for_all (fun set -> List.exists chosen set) sets
    in
    if covers then begin
      let cost = ref 0.0 in
      for j = 0 to n - 1 do
        if chosen j then cost := !cost +. objective.(j)
      done;
      if !cost < !best then best := !cost
    end
  done;
  !best

let prop_matches_exhaustive =
  Test_helpers.qcheck ~count:60 "ILP = exhaustive search on random covers"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 2 + Cdw_util.Splitmix.int rng 6 in
      let m = 1 + Cdw_util.Splitmix.int rng 5 in
      let objective =
        Array.init n (fun _ -> float_of_int (1 + Cdw_util.Splitmix.int rng 9))
      in
      let sets =
        List.init m (fun _ ->
            let forced = Cdw_util.Splitmix.int rng n in
            let extra =
              List.filter (fun j -> j <> forced && Cdw_util.Splitmix.bool rng)
                (List.init n Fun.id)
            in
            forced :: extra)
      in
      let constraints =
        List.map
          (fun set ->
            let a = Array.make n 0.0 in
            List.iter (fun j -> a.(j) <- 1.0) set;
            (a, Ge, 1.0))
          sets
      in
      match Ilp.solve { objective; constraints } with
      | Ilp.Optimal { objective_value; _ } ->
          Float.abs (objective_value -. brute_force_best objective sets) < 1e-6
      | Ilp.Infeasible -> false)

let suite =
  [
    Alcotest.test_case "weighted vertex cover (triangle)" `Quick
      test_vertex_cover_triangle;
    Alcotest.test_case "fractional LP forces branching" `Quick
      test_fractional_forces_branching;
    Alcotest.test_case "infeasible binary program" `Quick test_infeasible;
    Alcotest.test_case "≤ constraints (knapsack)" `Quick test_le_constraints;
    prop_matches_exhaustive;
  ]
