(** 0/1 integer programming by branch-and-bound over LP relaxations.

    Together with {!Simplex} this is the differential oracle for
    {!Cdw_lp.Cover.ilp}, general where that one is specialised to
    covers. All variables are binary; the relaxation adds [x_j ≤ 1]
    rows and fixes branched variables by substitution. Branching picks the most fractional variable, trying
    the [x = 1] branch first (covering problems reach feasibility
    fastest that way). *)

type outcome =
  | Optimal of { x : bool array; objective_value : float }
  | Infeasible

val solve :
  ?deadline:float ->
  ?node_limit:int ->
  Simplex.problem ->
  outcome
(** Minimise over binary assignments. [node_limit] (default 200_000)
    bounds the number of branch-and-bound nodes; exceeding it — or the
    cooperative [deadline] — raises [Cdw_util.Timing.Timeout]; a
    relaxation gone numerically wrong raises
    {!Simplex.Numerical_failure}. *)
