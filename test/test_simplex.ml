open Simplex

let check_float = Alcotest.(check (float 1e-6))

let solve_exn p =
  match solve p with
  | Optimal s -> s
  | Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Unbounded -> Alcotest.fail "unexpected Unbounded"

(* min -x - y  s.t.  x + 2y ≤ 14, 3x - y ≥ 0, x - y ≤ 2  →  (6, 4). *)
let test_textbook_le_ge () =
  let p =
    {
      objective = [| -1.0; -1.0 |];
      constraints =
        [
          ([| 1.0; 2.0 |], Le, 14.0);
          ([| 3.0; -1.0 |], Ge, 0.0);
          ([| 1.0; -1.0 |], Le, 2.0);
        ];
    }
  in
  let s = solve_exn p in
  check_float "objective" (-10.0) s.objective_value;
  check_float "x" 6.0 s.x.(0);
  check_float "y" 4.0 s.x.(1);
  Alcotest.(check bool) "feasibility checker agrees" true (feasible_value p s.x)

(* Covering LP: min 3x + 2y s.t. x + y ≥ 1 → y = 1. *)
let test_covering () =
  let p =
    {
      objective = [| 3.0; 2.0 |];
      constraints = [ ([| 1.0; 1.0 |], Ge, 1.0) ];
    }
  in
  let s = solve_exn p in
  check_float "objective" 2.0 s.objective_value;
  check_float "x stays 0" 0.0 s.x.(0);
  check_float "y covers" 1.0 s.x.(1)

let test_equality () =
  (* min x + y s.t. x + y = 3, x - y = 1 → (2, 1). *)
  let p =
    {
      objective = [| 1.0; 1.0 |];
      constraints = [ ([| 1.0; 1.0 |], Eq, 3.0); ([| 1.0; -1.0 |], Eq, 1.0) ];
    }
  in
  let s = solve_exn p in
  check_float "x" 2.0 s.x.(0);
  check_float "y" 1.0 s.x.(1)

let test_infeasible () =
  let p =
    {
      objective = [| 1.0 |];
      constraints = [ ([| 1.0 |], Ge, 2.0); ([| 1.0 |], Le, 1.0) ];
    }
  in
  match solve p with
  | Infeasible -> ()
  | Optimal _ | Unbounded -> Alcotest.fail "expected Infeasible"

let test_unbounded () =
  (* min -x with only x ≥ 1: x can grow forever. *)
  let p = { objective = [| -1.0 |]; constraints = [ ([| 1.0 |], Ge, 1.0) ] } in
  match solve p with
  | Unbounded -> ()
  | Optimal _ | Infeasible -> Alcotest.fail "expected Unbounded"

let test_negative_rhs_normalisation () =
  (* min x s.t. -x ≤ -5  ≡  x ≥ 5. *)
  let p = { objective = [| 1.0 |]; constraints = [ ([| -1.0 |], Le, -5.0) ] } in
  let s = solve_exn p in
  check_float "x = 5" 5.0 s.x.(0)

let test_degenerate_no_cycle () =
  (* A classically degenerate LP (Beale-like); Bland's rule must
     terminate. min -0.75x1 + 150x2 - 0.02x3 + 6x4 with the standard
     cycling constraints. *)
  let p =
    {
      objective = [| -0.75; 150.0; -0.02; 6.0 |];
      constraints =
        [
          ([| 0.25; -60.0; -0.04; 9.0 |], Le, 0.0);
          ([| 0.5; -90.0; -0.02; 3.0 |], Le, 0.0);
          ([| 0.0; 0.0; 1.0; 0.0 |], Le, 1.0);
        ];
    }
  in
  let s = solve_exn p in
  check_float "known optimum" (-0.05) s.objective_value

(* Property: on random covering LPs (the structure Multicut generates)
   the optimum is feasible and ≤ the all-ones point's cost. *)
let prop_covering_feasible =
  Test_helpers.qcheck "random covering LPs: optimal, feasible, bounded"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 2 + Cdw_util.Splitmix.int rng 6 in
      let m = 1 + Cdw_util.Splitmix.int rng 5 in
      let objective =
        Array.init n (fun _ -> float_of_int (1 + Cdw_util.Splitmix.int rng 9))
      in
      let constraints =
        List.init m (fun _ ->
            let a = Array.make n 0.0 in
            (* Ensure non-empty support. *)
            a.(Cdw_util.Splitmix.int rng n) <- 1.0;
            Array.iteri
              (fun j _ -> if Cdw_util.Splitmix.bool rng then a.(j) <- 1.0)
              a;
            (a, Ge, 1.0))
      in
      let p = { objective; constraints } in
      match solve p with
      | Optimal s ->
          let all_ones_cost = Array.fold_left ( +. ) 0.0 objective in
          feasible_value p s.x && s.objective_value <= all_ones_cost +. 1e-6
      | Infeasible | Unbounded -> false)

(* The pivot cap raises the typed failure the solver budgets forgive,
   not a bare [Failure] that would also forgive unrelated bugs. *)
let test_pivot_cap_typed () =
  let p =
    { objective = [| -1.0; -1.0 |]; constraints = [ ([| 1.0; 2.0 |], Le, 14.0) ] }
  in
  match solve ~max_pivots:0 p with
  | exception Numerical_failure _ -> ()
  | _ -> Alcotest.fail "max_pivots:0 solved an LP that needs a pivot"

let suite =
  [
    Alcotest.test_case "textbook LP with ≤ and ≥" `Quick test_textbook_le_ge;
    Alcotest.test_case "covering LP" `Quick test_covering;
    Alcotest.test_case "equality constraints" `Quick test_equality;
    Alcotest.test_case "infeasible detected" `Quick test_infeasible;
    Alcotest.test_case "unbounded detected" `Quick test_unbounded;
    Alcotest.test_case "negative rhs normalised" `Quick
      test_negative_rhs_normalisation;
    Alcotest.test_case "degenerate LP terminates (Bland)" `Quick
      test_degenerate_no_cycle;
    Alcotest.test_case "pivot cap raises Numerical_failure" `Quick
      test_pivot_cap_typed;
    prop_covering_feasible;
  ]
