(** Weighted minimum hitting set.

    A multicut must hit every s→t path, so minimum multicut over an
    (explicit or lazily grown) path pool *is* weighted hitting set. Two
    exact solvers are provided — the LP-based branch-and-bound mirroring
    the paper's GLPK formulation, and a combinatorial branch-and-bound —
    plus the classic greedy approximation. Elements are integers (edge
    variable indices in the multicut use). *)

type problem = {
  n_elems : int;
  weights : float array;  (** per element, non-negative *)
  sets : int array array;  (** each set must receive ≥ 1 chosen element *)
}

type presolve_info = {
  reduced : problem;
  kept_elems : int array;  (** reduced element index → original element *)
  forced : int list;  (** original elements every solution must take *)
}

val presolve : problem -> presolve_info
(** Classic set-cover reductions, applied to fixpoint:
    - a set that is a superset of another set is dropped (row dominance);
    - an element whose set membership is a subset of a cheaper-or-equal
      element's membership is dropped (column dominance);
    - a singleton set forces its element, satisfying every set
      containing it.
    Any optimal solution of [reduced], translated through [kept_elems]
    and extended with [forced], is optimal for the original problem. *)

val expand : problem -> presolve_info -> bool array -> bool array
(** Lift a solution of [reduced] back to the original element space. *)

val solve_ilp : ?deadline:float -> ?node_limit:int -> problem -> bool array
(** Exact, via {!Cdw_lp.Ilp} ([node_limit] is its branch-and-bound node
    cap). Raises [Invalid_argument] on an empty set (unhittable); may
    raise [Cdw_util.Timing.Timeout]. *)

val solve_bnb : ?deadline:float -> problem -> bool array
(** Exact, combinatorial branch-and-bound: branches on the elements of a
    smallest uncovered set, pruning with a disjoint-set lower bound and a
    greedy initial incumbent. *)

val solve_greedy : problem -> bool array
(** Chvátal-style greedy: repeatedly pick the element minimising
    weight / (number of uncovered sets hit). ln(n)-approximate. *)

val cost : problem -> bool array -> float

val covers : problem -> bool array -> bool
