module Timing = Cdw_util.Timing

type outcome =
  | Optimal of { x : bool array; objective_value : float }
  | Infeasible

let int_eps = 1e-6

(* LP relaxation of the subproblem where [fixed.(j) = Some v] pins
   variable j: substitute pinned variables into the constraints and keep
   only the free columns. Returns the free-variable index mapping. *)
let relaxation (problem : Simplex.problem) fixed =
  let n = Array.length problem.objective in
  let free = ref [] in
  for j = n - 1 downto 0 do
    if fixed.(j) = None then free := j :: !free
  done;
  let free = Array.of_list !free in
  let nf = Array.length free in
  let col = Array.make n (-1) in
  Array.iteri (fun k j -> col.(j) <- k) free;
  let objective = Array.map (fun j -> problem.objective.(j)) free in
  let shrink (a, rel, b) =
    let a' = Array.make nf 0.0 in
    let b' = ref b in
    Array.iteri
      (fun j aj ->
        match fixed.(j) with
        | None -> a'.(col.(j)) <- aj
        | Some true -> b' := !b' -. aj
        | Some false -> ())
      a;
    (a', rel, !b')
  in
  let upper_bounds =
    List.init nf (fun k ->
        let a = Array.make nf 0.0 in
        a.(k) <- 1.0;
        (a, Simplex.Le, 1.0))
  in
  let constraints = List.map shrink problem.constraints @ upper_bounds in
  (({ objective; constraints } : Simplex.problem), free)

let fixed_cost (problem : Simplex.problem) fixed =
  let acc = ref 0.0 in
  Array.iteri
    (fun j v -> if v = Some true then acc := !acc +. problem.objective.(j))
    fixed;
  !acc

let most_fractional free x =
  let best = ref None in
  Array.iteri
    (fun k j ->
      let frac = Float.abs (x.(k) -. 0.5) in
      match !best with
      | Some (_, bf) when bf <= frac -> ()
      | _ -> best := Some (j, frac))
    free;
  !best

let solve ?(deadline = infinity) ?(node_limit = 200_000)
    (problem : Simplex.problem) =
  let n = Array.length problem.objective in
  let incumbent = ref None in
  let incumbent_value = ref infinity in
  let nodes = ref 0 in
  let rec branch fixed =
    Timing.check_deadline deadline;
    incr nodes;
    if !nodes > node_limit then raise Timing.Timeout;
    let lp, free = relaxation problem fixed in
    if Array.length free = 0 then begin
      (* Fully assigned: check feasibility of the empty LP. *)
      match Simplex.solve ~deadline lp with
      | Simplex.Infeasible -> ()
      | Simplex.Optimal _ | Simplex.Unbounded ->
          let v = fixed_cost problem fixed in
          if v < !incumbent_value -. int_eps then begin
            incumbent_value := v;
            incumbent := Some (Array.map (fun o -> o = Some true) fixed)
          end
    end
    else
      match Simplex.solve ~deadline lp with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
          (* Every free variable carries an explicit x <= 1 row (and
             simplex keeps x >= 0), so the relaxation is a minimum over
             a compact box and cannot be unbounded; reaching this means
             the tableau went numerically off the rails. Fail loudly
             instead of mis-pruning the subtree. *)
          raise
            (Simplex.Numerical_failure
               "Ilp: bounded relaxation reported unbounded")
      | Simplex.Optimal { x; objective_value } ->
          let bound = objective_value +. fixed_cost problem fixed in
          if bound < !incumbent_value -. int_eps then begin
            let fractional =
              Array.exists
                (fun xk -> xk > int_eps && xk < 1.0 -. int_eps)
                x
            in
            let branch_most_fractional () =
              match most_fractional free x with
              | None -> ()
              | Some (j, _) ->
                  let try_value v =
                    fixed.(j) <- Some v;
                    branch fixed;
                    fixed.(j) <- None
                  in
                  try_value true;
                  try_value false
            in
            if not fractional then begin
              let assignment =
                Array.mapi
                  (fun j v ->
                    match v with
                    | Some b -> b
                    | None ->
                        let rec find k =
                          if free.(k) = j then x.(k) > 0.5 else find (k + 1)
                        in
                        find 0)
                  fixed
              in
              (* The LP objective still carries the near-integral
                 residue (each coordinate may sit int_eps off its
                 integer), so score the *rounded* assignment at its
                 exact cost — and accept it only if the rounding kept
                 it feasible; a near-integral point hugging a tight
                 constraint can round across it, in which case the
                 subtree still needs branching. *)
              let rounded =
                Array.map (fun b -> if b then 1.0 else 0.0) assignment
              in
              if Simplex.feasible_value problem rounded then begin
                let exact =
                  let acc = ref 0.0 in
                  Array.iteri
                    (fun j b ->
                      if b then acc := !acc +. problem.objective.(j))
                    assignment;
                  !acc
                in
                if exact < !incumbent_value -. int_eps then begin
                  incumbent_value := exact;
                  incumbent := Some assignment
                end
              end
              else branch_most_fractional ()
            end
            else branch_most_fractional ()
          end
  in
  branch (Array.make n None);
  match !incumbent with
  | None -> Infeasible
  | Some x -> Optimal { x; objective_value = !incumbent_value }
