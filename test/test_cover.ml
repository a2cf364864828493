(* Differential gate for the covering-LP engine (Cdw_lp.Cover): its LP
   value against the general two-phase simplex oracle (test/simplex.ml)
   on random covers with zero weights, duplicate, nested, singleton and
   pair sets; warm-started values against cold ones after every added set;
   and its branch-and-bound optimum against the oracle ILP
   (test/ilp.ml) and brute force. *)

module Cover = Cdw_lp.Cover
module Splitmix = Cdw_util.Splitmix
module Timing = Cdw_util.Timing

type instance = { weights : float array; sets : int array array }

(* A random cover over 1–10 elements: weights mix zeros, small integers
   and fractions. A third of the covers are vertex covers of random
   graphs (pair sets), whose LPs are often fractional; the rest mix
   random subsets with duplicates of, and subsets nested in, earlier
   sets, singletons and pairs. *)
let random_instance seed =
  let rng = Splitmix.create seed in
  let graph = Splitmix.int rng 3 = 0 in
  let n = (if graph then 3 else 1) + Splitmix.int rng 8 in
  let weights =
    Array.init n (fun _ ->
        match Splitmix.int rng 4 with
        | 0 when not graph -> 0.0
        | 1 -> float_of_int (1 + Splitmix.int rng 9)
        | _ -> 0.1 +. Splitmix.float rng 10.0)
  in
  let pair () =
    let a = Splitmix.int rng n in
    [| a; (a + 1 + Splitmix.int rng (n - 1)) mod n |]
  in
  let random_subset () =
    let s =
      List.filter (fun _ -> Splitmix.int rng 3 = 0) (List.init n Fun.id)
    in
    Array.of_list (if s = [] then [ Splitmix.int rng n ] else s)
  in
  let sets = ref [] in
  for _ = 1 to (if graph then n else 1) + Splitmix.int rng 14 do
    let s =
      match (!sets, Splitmix.int rng 6) with
      | _ when graph -> pair ()
      | earlier :: _, 0 -> Array.copy earlier (* duplicate *)
      | earlier :: _, 1 ->
          (* nested: a non-empty subset of an earlier set *)
          let keep =
            List.filter (fun _ -> Splitmix.bool rng) (Array.to_list earlier)
          in
          Array.of_list (if keep = [] then [ earlier.(0) ] else keep)
      | _, 2 -> [| Splitmix.int rng n |] (* singleton *)
      | _, 3 when n > 1 -> pair ()
      | _ -> random_subset ()
    in
    sets := s :: !sets
  done;
  { weights; sets = Array.of_list (List.rev !sets) }

let oracle_problem inst =
  let n = Array.length inst.weights in
  {
    Simplex.objective = Array.copy inst.weights;
    constraints =
      Array.to_list
        (Array.map
           (fun s ->
             let a = Array.make n 0.0 in
             Array.iter (fun e -> a.(e) <- 1.0) s;
             (a, Simplex.Ge, 1.0))
           inst.sets);
  }

let oracle_lp inst =
  match Simplex.solve (oracle_problem inst) with
  | Simplex.Optimal { objective_value; _ } -> objective_value
  | Simplex.Infeasible | Simplex.Unbounded -> nan

let cost inst chosen =
  let acc = ref 0.0 in
  Array.iteri (fun e b -> if b then acc := !acc +. inst.weights.(e)) chosen;
  !acc

let covers inst chosen =
  Array.for_all (Array.exists (fun e -> chosen.(e))) inst.sets

let brute_force inst =
  let n = Array.length inst.weights in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = Array.init n (fun e -> mask land (1 lsl e) <> 0) in
    if covers inst chosen then best := Float.min !best (cost inst chosen)
  done;
  !best

let close a b = Float.abs (a -. b) < 1e-6

(* The cover is feasible, and its weight is the LP value (strong
   duality between the cover and the packing dual). *)
let consistent inst t =
  let x = Cover.x t in
  Array.for_all
    (fun s -> Array.fold_left (fun acc e -> acc +. x.(e)) 0.0 s >= 1.0 -. 1e-6)
    inst.sets
  && close (Cover.value t)
       (Array.fold_left ( +. ) 0.0
          (Array.mapi (fun e xe -> inst.weights.(e) *. xe) x))

let prop_lp_vs_oracle =
  Test_helpers.qcheck ~count:300 "LP value = oracle simplex on random covers"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let inst = random_instance seed in
      let t = Cover.of_sets inst.weights inst.sets in
      Cover.solve t;
      close (Cover.value t) (oracle_lp inst) && consistent inst t)

let prop_warm_vs_cold =
  Test_helpers.qcheck ~count:200 "warm LP value = cold after every added set"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let inst = random_instance seed in
      let warm = Cover.create () in
      Array.iter (Cover.add_elem warm) inst.weights;
      let ok = ref true in
      Array.iteri
        (fun i s ->
          Cover.add_set warm s;
          Cover.solve warm;
          let prefix = { inst with sets = Array.sub inst.sets 0 (i + 1) } in
          let cold = Cover.of_sets prefix.weights prefix.sets in
          Cover.solve cold;
          ok :=
            !ok
            && close (Cover.value warm) (Cover.value cold)
            && close (Cover.value warm) (oracle_lp prefix)
            && consistent prefix warm)
        inst.sets;
      !ok && Cover.warm_columns warm = Array.length inst.sets - 1)

(* Elements arrive with the first set that mentions them, as the lazy
   multicut loop adds them: new rows and new columns interleave. *)
let prop_warm_new_elements =
  Test_helpers.qcheck ~count:200 "warm LP value = oracle as elements arrive"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let inst = random_instance seed in
      let n = Array.length inst.weights in
      let local = Array.make n (-1) in
      let order = ref [] in
      let warm = Cover.create () in
      let added = ref [] in
      let ok = ref true in
      Array.iter
        (fun s ->
          let s' =
            Array.map
              (fun e ->
                if local.(e) < 0 then begin
                  local.(e) <- Cover.n_elems warm;
                  order := e :: !order;
                  Cover.add_elem warm inst.weights.(e)
                end;
                local.(e))
              s
          in
          Cover.add_set warm s';
          added := s' :: !added;
          Cover.solve warm;
          let prefix =
            {
              weights =
                Array.of_list (List.rev_map (fun e -> inst.weights.(e)) !order);
              sets = Array.of_list (List.rev !added);
            }
          in
          ok := !ok && close (Cover.value warm) (oracle_lp prefix))
        inst.sets;
      !ok)

(* Seeds 1–400 include many covers whose root LP is fractional, so the
   branching code runs, not just the integral root. *)
let test_ilp_vs_oracle () =
  let branched = ref 0 in
  for seed = 1 to 400 do
    let inst = random_instance seed in
    let t = Cover.of_sets inst.weights inst.sets in
    let chosen = Cover.ilp t in
    if Cover.nodes t > 1 then incr branched;
    let oracle =
      match Ilp.solve (oracle_problem inst) with
      | Ilp.Optimal { objective_value; _ } -> objective_value
      | Ilp.Infeasible -> nan
    in
    let bf = brute_force inst in
    if
      not (covers inst chosen && close (cost inst chosen) bf && close oracle bf)
    then
      Alcotest.failf "seed %d: B&B %.6f, oracle ILP %.6f, brute force %.6f" seed
        (cost inst chosen) oracle bf
  done;
  if !branched < 40 then
    Alcotest.failf "only %d of 400 covers needed branching" !branched

(* Branch-and-bound leaves the program as its root solve did, so the
   next lazy round resumes from the root basis. *)
let prop_ilp_keeps_root =
  Test_helpers.qcheck ~count:100 "B&B leaves the root LP in place"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let inst = random_instance seed in
      let t = Cover.of_sets inst.weights inst.sets in
      ignore (Cover.ilp t);
      let root = Cover.value t in
      let pivots = Cover.pivots t in
      Cover.solve t;
      close root (oracle_lp inst)
      && Cover.pivots t = pivots
      && consistent inst t)

(* min 3a + 2b + 2c s.t. a+b ≥ 1, b+c ≥ 1, a+c ≥ 1: the LP sits at 1/2
   everywhere (value 3.5), so the 0/1 optimum {b, c} needs branching. *)
let triangle () =
  Cover.of_sets [| 3.0; 2.0; 2.0 |] [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] |]

let test_triangle () =
  let t = triangle () in
  Alcotest.(check (array bool)) "optimum" [| false; true; true |] (Cover.ilp t);
  Alcotest.(check (float 1e-9)) "root LP value" 3.5 (Cover.value t);
  Alcotest.(check bool) "branched" true (Cover.nodes t > 1);
  Alcotest.(check bool) "pivoted" true (Cover.pivots t > 0)

let test_node_limit () =
  Alcotest.check_raises "node limit" Timing.Timeout (fun () ->
      ignore (Cover.ilp ~node_limit:1 (triangle ())));
  Alcotest.check_raises "no node at all" Timing.Timeout (fun () ->
      ignore (Cover.ilp ~node_limit:0 (Cover.of_sets [| 1.0 |] [| [| 0 |] |])))

let test_deadline () =
  let expired = Timing.now_ms () -. 1.0 in
  Alcotest.check_raises "LP" Timing.Timeout (fun () ->
      Cover.solve ~deadline:expired (triangle ()));
  Alcotest.check_raises "B&B" Timing.Timeout (fun () ->
      ignore (Cover.ilp ~deadline:expired (triangle ())))

let test_invalid () =
  let t = Cover.create () in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Cover.add_elem: negative weight") (fun () ->
      Cover.add_elem t (-1.0));
  Alcotest.check_raises "empty set"
    (Invalid_argument "Cover.add_set: empty set") (fun () ->
      Cover.add_set t [||]);
  Alcotest.check_raises "unknown element"
    (Invalid_argument "Cover.add_set: unknown element") (fun () ->
      Cover.add_set t [| 0 |])

let test_empty () =
  let t = Cover.of_sets [| 1.0; 2.0 |] [||] in
  Alcotest.(check (array bool))
    "nothing to cover" [| false; false |] (Cover.ilp t);
  Alcotest.(check (float 0.0)) "value" 0.0 (Cover.value t)

let suite =
  [
    Alcotest.test_case "triangle: fractional root, branched optimum" `Quick
      test_triangle;
    Alcotest.test_case "node limit raises Timeout" `Quick test_node_limit;
    Alcotest.test_case "cooperative deadline" `Quick test_deadline;
    Alcotest.test_case "invalid programs rejected" `Quick test_invalid;
    Alcotest.test_case "no sets: empty cover" `Quick test_empty;
    prop_lp_vs_oracle;
    prop_warm_vs_cold;
    prop_warm_new_elements;
    Alcotest.test_case "B&B optimum = oracle ILP = brute force" `Quick
      test_ilp_vs_oracle;
    prop_ilp_keeps_root;
  ]
