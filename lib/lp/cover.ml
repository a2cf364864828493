module Timing = Cdw_util.Timing
module Vec = Cdw_util.Vec

exception Numerical_failure of string

let eps = 1e-9
let int_eps = 1e-6

(* Entries below this magnitude are elimination noise: dropping them
   keeps the basis inverse as sparse as the 0/1 program it inverts. *)
let drop_tol = 1e-13

(* Variables of the packing dual. Set [s] is [s >= 0]. Element [e] owns
   two columns: its slack (+1 in row e) and, once branch-and-bound
   excludes e, a surplus (−1 in row e) that lifts the row's bound —
   the dual of fixing x_e = 0. *)
let slack e = -(2 * e) - 1
let surplus e = -(2 * e) - 2
let elem_of v = (-v - 1) / 2
let is_surplus v = (-v - 1) land 1 = 1

(* Bland's order: any fixed total order over the variables. *)
let key v =
  if v >= 0 then 3 * v else (3 * elem_of v) + if is_surplus v then 2 else 1

type t = {
  mutable m : int;  (* elements = dual rows *)
  mutable w : float array;
  mutable binv : float array array;  (* row i of the basis inverse *)
  mutable beta : float array;  (* basic values, B⁻¹ w *)
  mutable basis : int array;  (* row -> basic variable *)
  mutable rc : float array;
      (* slack e's reduced cost (its surplus's, negated): the primal
         x_e, maintained by pivots *)
  mutable slack_row : int array;  (* element -> row of its basic slack, or -1 *)
  mutable surplus_row : int array;
      (* element -> row of its basic surplus, -1 nonbasic, -2 absent *)
  mutable alpha : float array;  (* scratch: the entering column, B⁻¹ a *)
  mutable nz : int array;  (* scratch: support of the pivot row *)
  sets : int array Vec.t;
  set_row : int Vec.t;  (* set -> row where it is basic, or -1 *)
  demand : float Vec.t;
      (* set -> its dual objective coefficient: 1, or 0 once
         branch-and-bound chooses one of its elements *)
  mutable solved : bool;
  mutable pivots : int;
  mutable nodes : int;
  mutable warm_columns : int;
}

let create () =
  let cap = 16 in
  {
    m = 0;
    w = Array.make cap 0.0;
    binv = Array.init cap (fun _ -> Array.make cap 0.0);
    beta = Array.make cap 0.0;
    basis = Array.make cap 0;
    rc = Array.make cap 0.0;
    slack_row = Array.make cap (-1);
    surplus_row = Array.make cap (-2);
    alpha = Array.make cap 0.0;
    nz = Array.make cap 0;
    sets = Vec.create ();
    set_row = Vec.create ();
    demand = Vec.create ();
    solved = false;
    pivots = 0;
    nodes = 0;
    warm_columns = 0;
  }

let n_elems t = t.m
let n_sets t = Vec.length t.sets
let pivots t = t.pivots
let nodes t = t.nodes
let warm_columns t = t.warm_columns

let grow t =
  let cap = Array.length t.w in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.w <- extend t.w 0.0;
  t.binv <-
    Array.init cap' (fun i ->
        if i < cap then extend t.binv.(i) 0.0 else Array.make cap' 0.0);
  t.beta <- extend t.beta 0.0;
  t.basis <- extend t.basis 0;
  t.rc <- extend t.rc 0.0;
  t.slack_row <- extend t.slack_row (-1);
  t.surplus_row <- extend t.surplus_row (-2);
  t.alpha <- Array.make cap' 0.0;
  t.nz <- Array.make cap' 0

(* The new row's coefficient is 0 in every existing column (no earlier
   set holds the new element), so the basis inverse gains an identity
   row and column, and the new slack is basic at w_e ≥ 0. *)
let add_elem t weight =
  if Float.is_nan weight || weight < 0.0 then
    invalid_arg "Cover.add_elem: negative weight";
  if t.m = Array.length t.w then grow t;
  let e = t.m in
  t.w.(e) <- weight;
  t.binv.(e).(e) <- 1.0;
  t.beta.(e) <- weight;
  t.basis.(e) <- slack e;
  t.rc.(e) <- 0.0;
  t.slack_row.(e) <- e;
  t.m <- e + 1

let add_set t s =
  if Array.length s = 0 then invalid_arg "Cover.add_set: empty set";
  Array.iter
    (fun e ->
      if e < 0 || e >= t.m then invalid_arg "Cover.add_set: unknown element")
    s;
  Vec.push t.sets (Array.copy s);
  Vec.push t.set_row (-1);
  Vec.push t.demand 1.0;
  if t.solved then t.warm_columns <- t.warm_columns + 1

let of_sets weights sets =
  let t = create () in
  Array.iter (add_elem t) weights;
  Array.iter (add_set t) sets;
  t

(* Reduced cost of set s in min form (minimise −Σ demand·y):
   −demand_s + Σ_{e∈S} x_e. *)
let set_cost t s set =
  let acc = ref (-.Vec.get t.demand s) in
  Array.iter (fun e -> acc := !acc +. t.rc.(e)) set;
  !acc

(* Entering variable. Dantzig's rule (most negative reduced cost) is
   fast but can cycle on degenerate programs — and covers over paths
   with zero-weight edges are very degenerate; Bland's rule (smallest
   variable in [key] order) cannot. [optimize] runs Dantzig until the
   objective stalls, then Bland. *)
let entering t ~bland =
  let best = ref 0 and best_d = ref 0.0 and found = ref false in
  let consider v d =
    if d < -.eps then
      if
        (not !found)
        || (if bland then key v < key !best else d < !best_d)
      then begin
        found := true;
        best := v;
        best_d := d
      end
  in
  for e = 0 to t.m - 1 do
    if t.slack_row.(e) < 0 then consider (slack e) t.rc.(e);
    if t.surplus_row.(e) = -1 then consider (surplus e) (-.t.rc.(e))
  done;
  Vec.iteri
    (fun s set -> if Vec.get t.set_row s < 0 then consider s (set_cost t s set))
    t.sets;
  if !found then Some (!best, !best_d) else None

(* Fill [alpha] with B⁻¹ times the column of variable [v]. *)
let column t v =
  let alpha = t.alpha in
  if v < 0 then begin
    let e = elem_of v in
    let sign = if is_surplus v then -1.0 else 1.0 in
    for i = 0 to t.m - 1 do alpha.(i) <- sign *. t.binv.(i).(e) done
  end
  else begin
    let set = Vec.get t.sets v in
    for i = 0 to t.m - 1 do
      let row = t.binv.(i) in
      let acc = ref 0.0 in
      Array.iter (fun e -> acc := !acc +. row.(e)) set;
      alpha.(i) <- !acc
    done
  end

(* Ratio test, ties to the smaller basic variable in [key] order. *)
let leaving t =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let a = t.alpha.(i) in
    if a > eps then begin
      let ratio = Float.max 0.0 t.beta.(i) /. a in
      if
        !best < 0
        || ratio < !best_ratio -. eps
        || Float.abs (ratio -. !best_ratio) <= eps
           && key t.basis.(i) < key t.basis.(!best)
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  if !best < 0 then None else Some !best

let set_basic_row t v row =
  if v >= 0 then Vec.set t.set_row v row
  else if is_surplus v then t.surplus_row.(elem_of v) <- row
  else t.slack_row.(elem_of v) <- row

(* Pivot variable [v] (reduced cost [d], column in [alpha]) into [row];
   returns the objective gain. Only the pivot row's support is touched
   in the other rows. *)
let pivot t ~row:r ~var:v ~d =
  let alpha = t.alpha and nz = t.nz in
  let br = t.binv.(r) in
  let inv = 1.0 /. alpha.(r) in
  let k = ref 0 in
  for j = 0 to t.m - 1 do
    if br.(j) <> 0.0 then begin
      br.(j) <- br.(j) *. inv;
      nz.(!k) <- j;
      incr k
    end
  done;
  let theta = t.beta.(r) *. inv in
  t.beta.(r) <- theta;
  for i = 0 to t.m - 1 do
    let f = alpha.(i) in
    if i <> r && f <> 0.0 then begin
      let bi = t.binv.(i) in
      for q = 0 to !k - 1 do
        let j = nz.(q) in
        let b = bi.(j) -. (f *. br.(j)) in
        bi.(j) <- (if Float.abs b < drop_tol then 0.0 else b)
      done;
      t.beta.(i) <- t.beta.(i) -. (f *. theta)
    end
  done;
  for q = 0 to !k - 1 do
    let j = nz.(q) in
    t.rc.(j) <- t.rc.(j) -. (d *. br.(j))
  done;
  set_basic_row t t.basis.(r) (-1);
  t.basis.(r) <- v;
  set_basic_row t v r;
  if v < 0 then t.rc.(elem_of v) <- 0.0;
  t.pivots <- t.pivots + 1;
  -.d *. theta

let stall_threshold = 64

let optimize ~deadline t =
  let max_pivots = 100_000 + (200 * (t.m + n_sets t)) in
  let rec loop k stalled =
    if k > max_pivots then
      raise (Numerical_failure "Cover: pivot cap exceeded");
    if k land 63 = 0 then Timing.check_deadline deadline;
    match entering t ~bland:(stalled > stall_threshold) with
    | None -> ()
    | Some (v, d) -> (
        column t v;
        match leaving t with
        | None ->
            (* Every set with demand has an element that is not
               excluded, whose weight bounds the set's dual. *)
            raise (Numerical_failure "Cover: packing dual reported unbounded")
        | Some row ->
            let gain = pivot t ~row ~var:v ~d in
            loop (k + 1) (if gain > eps then 0 else stalled + 1))
  in
  loop 0 0

(* Recompute the basic values and the slacks' reduced costs from the
   basis inverse, clearing the drift of incremental updates (and
   pricing a changed demand): β = B⁻¹ w, and x = −c_B B⁻¹ with
   c = −demand on sets, 0 on slacks and surpluses. *)
let refresh t =
  Array.fill t.rc 0 t.m 0.0;
  for i = 0 to t.m - 1 do
    let row = t.binv.(i) in
    let acc = ref 0.0 in
    for e = 0 to t.m - 1 do
      acc := !acc +. (row.(e) *. t.w.(e))
    done;
    t.beta.(i) <- !acc;
    let v = t.basis.(i) in
    if v >= 0 then begin
      let c = Vec.get t.demand v in
      if c <> 0.0 then
        for e = 0 to t.m - 1 do t.rc.(e) <- t.rc.(e) +. (c *. row.(e)) done
    end
  done;
  for e = 0 to t.m - 1 do
    if t.slack_row.(e) >= 0 || t.surplus_row.(e) >= 0 then t.rc.(e) <- 0.0
  done

let solve ?(deadline = infinity) t =
  optimize ~deadline t;
  refresh t;
  (* Usually no pivots: only acts when the refresh uncovered drift. *)
  optimize ~deadline t;
  t.solved <- true

(* x ≥ 0 holds up to the solver's tolerance, and x ≤ 1 is never binding
   for a cover with w ≥ 0: clamp the noise. *)
let x t = Array.init t.m (fun e -> Float.min 1.0 (Float.max 0.0 t.rc.(e)))

let value t =
  let acc = ref 0.0 in
  for i = 0 to t.m - 1 do
    let v = t.basis.(i) in
    if v >= 0 then
      acc := !acc +. (Vec.get t.demand v *. Float.max 0.0 t.beta.(i))
  done;
  !acc

(* The basis state branch-and-bound returns to: everything a pivot or a
   fixing changes. *)
type snapshot = {
  s_binv : float array array;
  s_beta : float array;
  s_basis : int array;
  s_rc : float array;
  s_slack_row : int array;
  s_surplus_row : int array;
  s_set_row : int array;
}

let snapshot t =
  let m = t.m in
  {
    s_binv = Array.init m (fun i -> Array.sub t.binv.(i) 0 m);
    s_beta = Array.sub t.beta 0 m;
    s_basis = Array.sub t.basis 0 m;
    s_rc = Array.sub t.rc 0 m;
    s_slack_row = Array.sub t.slack_row 0 m;
    s_surplus_row = Array.sub t.surplus_row 0 m;
    s_set_row = Vec.to_array t.set_row;
  }

let restore t s =
  let m = t.m in
  Array.iteri (fun i row -> Array.blit row 0 t.binv.(i) 0 m) s.s_binv;
  Array.blit s.s_beta 0 t.beta 0 m;
  Array.blit s.s_basis 0 t.basis 0 m;
  Array.blit s.s_rc 0 t.rc 0 m;
  Array.blit s.s_slack_row 0 t.slack_row 0 m;
  Array.blit s.s_surplus_row 0 t.surplus_row 0 m;
  Array.iteri (Vec.set t.set_row) s.s_set_row

let ilp ?(deadline = infinity) ?(node_limit = 200_000) t =
  let n = t.m in
  let w = Array.sub t.w 0 n in
  let sets = Vec.to_array t.sets in
  let nodes = ref 0 in
  let visit () =
    Timing.check_deadline deadline;
    incr nodes;
    t.nodes <- t.nodes + 1;
    if !nodes > node_limit then raise Timing.Timeout
  in
  (* Element states: -1 free, 0 excluded, 1 chosen. *)
  let fixed = Array.make n (-1) in
  let fixed_cost = ref 0.0 in
  let incumbent = ref None and incumbent_value = ref infinity in
  let covers chosen = Array.for_all (Array.exists (fun e -> chosen.(e))) sets in
  (* The free element farthest from integral, if any lies strictly
     inside (int_eps, 1 − int_eps) — or, with [any], the free element
     nearest 1/2 however close to integral. *)
  let branch_var ~any xs =
    let best = ref (-1) and best_gap = ref infinity in
    Array.iteri
      (fun e v ->
        let gap = Float.abs (v -. 0.5) in
        if
          fixed.(e) < 0
          && (any || (v > int_eps && v < 1.0 -. int_eps))
          && gap < !best_gap
        then begin
          best := e;
          best_gap := gap
        end)
      xs;
    if !best < 0 then None else Some !best
  in
  (* Taken at the first branching, before any node changes the program. *)
  let root = lazy (snapshot t) in
  (* A node's relaxation, warm from the root's optimal basis: a chosen
     element zeroes the demand of the sets it hits (an objective
     change), an excluded one gets its surplus column; the root basis
     stays primal feasible under both. A set whose every element is
     excluded makes the node infeasible. The cover is returned over all
     [n] elements, fixed ones at their values. *)
  let relax () =
    visit ();
    let hit s = Array.exists (fun e -> fixed.(e) = 1) s in
    if
      Array.exists
        (fun s -> (not (hit s)) && Array.for_all (fun e -> fixed.(e) = 0) s)
        sets
    then None
    else begin
      restore t (Lazy.force root);
      Array.iteri
        (fun i s -> Vec.set t.demand i (if hit s then 0.0 else 1.0))
        sets;
      Array.iteri (fun e f -> if f = 0 then t.surplus_row.(e) <- -1) fixed;
      refresh t;
      solve ~deadline t;
      let xs = x t in
      Array.iteri (fun e f -> if f >= 0 then xs.(e) <- float_of_int f) fixed;
      Some (xs, value t)
    end
  in
  let rec explore (xs, lp_value) =
    if lp_value +. !fixed_cost < !incumbent_value -. int_eps then
      match branch_var ~any:false xs with
      | Some e -> branch e
      | None ->
          (* Near-integral: score the rounded cover at its exact cost,
             and accept it only if rounding kept every set hit. *)
          let chosen = Array.map (fun v -> v > 0.5) xs in
          if covers chosen then begin
            let cost = ref 0.0 in
            Array.iteri (fun e b -> if b then cost := !cost +. w.(e)) chosen;
            if !cost < !incumbent_value -. int_eps then begin
              incumbent_value := !cost;
              incumbent := Some chosen
            end
          end
          else Option.iter branch (branch_var ~any:true xs)
  and branch e =
    (* Covering programs reach feasibility fastest on the x = 1 side. *)
    List.iter
      (fun v ->
        let saved = !fixed_cost in
        fixed.(e) <- v;
        if v = 1 then fixed_cost := saved +. w.(e);
        Fun.protect
          ~finally:(fun () ->
            fixed_cost := saved;
            fixed.(e) <- -1)
          (fun () -> Option.iter explore (relax ())))
      [ 1; 0 ]
  in
  visit ();
  solve ~deadline t;
  Fun.protect
    ~finally:(fun () ->
      (* Leave the program as the root solve left it, whatever happened
         below: the next lazy round resumes from that basis. *)
      if Lazy.is_val root then begin
        restore t (Lazy.force root);
        Vec.iteri (fun i _ -> Vec.set t.demand i 1.0) t.demand
      end)
    (fun () -> explore (x t, value t));
  match !incumbent with
  | Some chosen -> chosen
  | None ->
      (* Choosing every element hits every (non-empty) set, so the
         root is feasible and the search keeps some incumbent. *)
      raise (Numerical_failure "Cover: branch-and-bound found no cover")
