(** Two-phase primal simplex over a dense tableau: the differential
    oracle for {!Cdw_lp.Cover}. General (any relation, any sign), so it
    checks the covering engine on programs it was not specialised for.
    It solves

    {v minimize    c · x
   subject to  a_i · x  (≤ | ≥ | =)  b_i     for every constraint i
               x ≥ 0 v}

    Pivoting uses Dantzig's rule while the objective improves and falls
    back to Bland's rule on degenerate plateaus, so it is both fast and
    cycle-free; a step cap still guards against numerical stalling. *)

type relation = Le | Ge | Eq

type problem = {
  objective : float array;  (** minimised; length = number of variables *)
  constraints : (float array * relation * float) list;
}

type solution = { x : float array; objective_value : float }

type outcome = Optimal of solution | Infeasible | Unbounded

exception Numerical_failure of string
(** The dense tableau went numerically off the rails: the pivot cap was
    hit, or (from {!Ilp}) a bounded relaxation reported unbounded. *)

val solve : ?max_pivots:int -> ?deadline:float -> problem -> outcome
(** [max_pivots] defaults to [100_000 + 200 * (vars + constraints)].
    Raises {!Numerical_failure} when the cap is hit and
    [Cdw_util.Timing.Timeout] when the cooperative [deadline] (checked
    every few dozen pivots) has passed. *)

val feasible_value : problem -> float array -> bool
(** Check a point against all constraints (tolerance 1e-6); used by the
    property tests. *)
