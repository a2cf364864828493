(* Deeper properties of the general LP/ILP oracle (test/simplex.ml,
   test/ilp.ml) that test_cover.ml checks Cdw_lp.Cover against:
   strong duality on random feasible primal/dual pairs,
   branch-and-bound against exhaustive search up to 12 variables, and
   regressions for the edge cases the oracle work surfaced — empty and
   all-zero objectives, nonnegativity of extracted solutions (the
   tiny-negative basic-value clamp), and exactness under weights
   spanning many orders of magnitude (the near-integral incumbent
   re-scoring). *)

module Splitmix = Cdw_util.Splitmix
open Simplex

let check_float = Alcotest.(check (float 1e-6))

(* ---------------------------------------------------------------- *)
(* Strong duality                                                     *)

(* Primal: min c·x s.t. Ax ≥ b, x ≥ 0 with A, b, c ≥ 0 — always
   feasible (scale x up) and bounded (c ≥ 0). Its dual is
   max b·y s.t. Aᵀy ≤ c, y ≥ 0, solved here as min (−b)·y. Strong
   duality: the two optima agree (up to sign). *)
let prop_strong_duality =
  Test_helpers.qcheck ~count:100 "strong duality on random primal/dual pairs"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n = 2 + Splitmix.int rng 5 in
      let m = 1 + Splitmix.int rng 4 in
      let c = Array.init n (fun _ -> float_of_int (1 + Splitmix.int rng 9)) in
      let b = Array.init m (fun _ -> float_of_int (1 + Splitmix.int rng 9)) in
      let rows =
        Array.init m (fun i ->
            let a = Array.init n (fun _ -> float_of_int (Splitmix.int rng 4)) in
            (* Non-empty support so row i is satisfiable at all. *)
            a.(Splitmix.int rng n) <- float_of_int (1 + Splitmix.int rng 3);
            ignore i;
            a)
      in
      let primal =
        {
          objective = c;
          constraints =
            Array.to_list (Array.mapi (fun i a -> (a, Ge, b.(i))) rows);
        }
      in
      let dual =
        {
          objective = Array.map (fun v -> -.v) b;
          constraints =
            List.init n (fun j ->
                (Array.init m (fun i -> rows.(i).(j)), Le, c.(j)));
        }
      in
      match (solve primal, solve dual) with
      | Optimal p, Optimal d ->
          Float.abs (p.objective_value +. d.objective_value) < 1e-5
      | _ -> false)

(* ---------------------------------------------------------------- *)
(* B&B vs exhaustive search, wider instances                          *)

let brute_force (p : problem) =
  let n = Array.length p.objective in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> mask land (1 lsl j) <> 0) in
    let ok =
      List.for_all
        (fun (a, rel, rhs) ->
          let v = ref 0.0 in
          Array.iteri (fun j aj -> if x.(j) then v := !v +. aj) a;
          match rel with
          | Ge -> !v >= rhs -. 1e-9
          | Le -> !v <= rhs +. 1e-9
          | Eq -> Float.abs (!v -. rhs) < 1e-9)
        p.constraints
    in
    if ok then begin
      let cost = ref 0.0 in
      Array.iteri (fun j xj -> if xj then cost := !cost +. p.objective.(j)) x;
      if !cost < !best then best := !cost
    end
  done;
  !best

let prop_bnb_matches_brute_force_12 =
  Test_helpers.qcheck ~count:60 "B&B = exhaustive search (≤ 12 variables)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n = 8 + Splitmix.int rng 5 in
      let m = 2 + Splitmix.int rng 6 in
      let objective =
        Array.init n (fun _ -> float_of_int (1 + Splitmix.int rng 99))
      in
      let constraints =
        List.init m (fun _ ->
            let a = Array.make n 0.0 in
            a.(Splitmix.int rng n) <- 1.0;
            Array.iteri
              (fun j _ -> if Splitmix.int rng 3 = 0 then a.(j) <- 1.0)
              a;
            if Splitmix.int rng 4 = 0 then
              (* A ≤ row caps how much may be taken — exercises both
                 branch directions, not just covering. *)
              (a, Le, float_of_int (1 + Splitmix.int rng (n - 1)))
            else (a, Ge, 1.0))
      in
      let p = { objective; constraints } in
      let reference = brute_force p in
      match Ilp.solve p with
      | Ilp.Optimal { objective_value; _ } ->
          Float.abs (objective_value -. reference) < 1e-6
      | Ilp.Infeasible -> reference = infinity)

(* ---------------------------------------------------------------- *)
(* Edge-case regressions                                              *)

let test_empty_problem () =
  (match solve { objective = [||]; constraints = [] } with
  | Optimal s ->
      check_float "empty LP optimum" 0.0 s.objective_value;
      Alcotest.(check int) "no variables" 0 (Array.length s.x)
  | Infeasible | Unbounded -> Alcotest.fail "empty LP must be Optimal");
  match Ilp.solve { objective = [||]; constraints = [] } with
  | Ilp.Optimal { objective_value; x } ->
      check_float "empty ILP optimum" 0.0 objective_value;
      Alcotest.(check int) "no binary variables" 0 (Array.length x)
  | Ilp.Infeasible -> Alcotest.fail "empty ILP must be Optimal"

let test_zero_objective () =
  (* A degenerate all-zero objective: any feasible point is optimal at
     cost 0; the solver must terminate and report feasibility. *)
  let p =
    {
      objective = [| 0.0; 0.0; 0.0 |];
      constraints =
        [ ([| 1.0; 1.0; 0.0 |], Ge, 1.0); ([| 0.0; 1.0; 1.0 |], Ge, 1.0) ];
    }
  in
  (match solve p with
  | Optimal s ->
      check_float "zero objective cost" 0.0 s.objective_value;
      Alcotest.(check bool) "point is feasible" true (feasible_value p s.x)
  | Infeasible | Unbounded -> Alcotest.fail "expected Optimal");
  match Ilp.solve p with
  | Ilp.Optimal { objective_value; _ } ->
      check_float "zero-objective ILP cost" 0.0 objective_value
  | Ilp.Infeasible -> Alcotest.fail "expected Optimal"

let test_zero_row_constraints () =
  (* All-zero rows: vacuously true or plainly impossible — never a
     crash or a bogus pivot. *)
  let feasible =
    { objective = [| 1.0 |]; constraints = [ ([| 0.0 |], Ge, 0.0) ] }
  in
  (match solve feasible with
  | Optimal s -> check_float "vacuous row" 0.0 s.objective_value
  | Infeasible | Unbounded -> Alcotest.fail "vacuous row must be Optimal");
  let impossible =
    { objective = [| 1.0 |]; constraints = [ ([| 0.0 |], Ge, 1.0) ] }
  in
  match solve impossible with
  | Infeasible -> ()
  | Optimal _ | Unbounded -> Alcotest.fail "0 ≥ 1 must be Infeasible"

(* The extraction clamp: simplex may leave a basic variable at a tiny
   negative value (−1e-12 style noise); the returned point must still
   be nonnegative and feasible. Random covering LPs with fractional
   coefficients are where the noise shows up. *)
let prop_solutions_nonnegative =
  Test_helpers.qcheck ~count:200 "extracted solutions are nonnegative"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n = 2 + Splitmix.int rng 6 in
      let m = 1 + Splitmix.int rng 6 in
      let objective =
        Array.init n (fun _ -> 0.01 +. Splitmix.float rng 10.0)
      in
      let constraints =
        List.init m (fun _ ->
            let a =
              Array.init n (fun _ ->
                  if Splitmix.bool rng then Splitmix.float rng 3.0 else 0.0)
            in
            a.(Splitmix.int rng n) <- 0.5 +. Splitmix.float rng 2.0;
            (a, Ge, 0.1 +. Splitmix.float rng 5.0))
      in
      match solve { objective; constraints } with
      | Optimal s -> Array.for_all (fun v -> v >= 0.0) s.x
      | Infeasible | Unbounded -> false)

(* Near-integral incumbents: with weights spanning six orders of
   magnitude the LP relaxation lands within tolerance of integral
   points whose *rounded* cost differs materially from the LP value.
   The B&B must re-score the rounded point exactly (and reject it when
   infeasible) — exhaustive search is the referee. *)
let prop_wide_weight_scale =
  Test_helpers.qcheck ~count:60 "B&B exact under 1e6-spread weights"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n = 4 + Splitmix.int rng 5 in
      let m = 2 + Splitmix.int rng 4 in
      let objective =
        Array.init n (fun _ ->
            let scale = [| 0.001; 1.0; 1000.0; 1_000_000.0 |] in
            scale.(Splitmix.int rng 4) *. (1.0 +. Splitmix.float rng 9.0))
      in
      let constraints =
        List.init m (fun _ ->
            let a = Array.make n 0.0 in
            a.(Splitmix.int rng n) <- 1.0;
            Array.iteri
              (fun j _ -> if Splitmix.bool rng then a.(j) <- 1.0)
              a;
            (a, Ge, 1.0))
      in
      let p = { objective; constraints } in
      match Ilp.solve p with
      | Ilp.Optimal { objective_value; _ } ->
          let reference = brute_force p in
          Float.abs (objective_value -. reference)
          < 1e-6 *. Float.max 1.0 reference
      | Ilp.Infeasible -> false)

let suite =
  [
    prop_strong_duality;
    prop_bnb_matches_brute_force_12;
    Alcotest.test_case "empty problem (LP and ILP)" `Quick test_empty_problem;
    Alcotest.test_case "all-zero objective" `Quick test_zero_objective;
    Alcotest.test_case "all-zero constraint rows" `Quick
      test_zero_row_constraints;
    prop_solutions_nonnegative;
    prop_wide_weight_scale;
  ]
