(** Covering LPs and their 0/1 programs, solved through the packing dual.

    This is the linear-programming substrate standing in for the GLPK
    solver the paper drives through PICOS for RemoveMinMC. The only
    programs the library solves are weighted set covers: elements
    [e] with weights [w_e ≥ 0], sets [S ⊆ elements], and

    {v minimize    Σ_e w_e · x_e
   subject to  Σ_{e ∈ S} x_e ≥ 1      for every set S
               x ≥ 0  (x ∈ {0,1} for {!ilp}) v}

    A {!t} holds the packing dual of that program,

    {v maximize    Σ_S y_S
   subject to  Σ_{S ∋ e} y_S ≤ w_e    for every element e
               y ≥ 0 v}

    and runs primal simplex on it with an explicit basis inverse. The
    all-slack basis is feasible because [w ≥ 0], so there is no phase 1,
    and no [x ≤ 1] rows: they are redundant for a cover with [w ≥ 0].
    The cover's [x] is read off the slacks' reduced costs.

    The program can grow between solves, and {!solve} resumes from the
    basis the last solve ended on. A new set is a new dual column; its
    reduced cost is [−1 + Σ_{e ∈ S} x_e], so it enters only when the
    current cover violates it. A new element is a new row whose slack is
    basic at [w_e ≥ 0]. Either way the basis stays feasible. *)

type t

exception Numerical_failure of string
(** The simplex went numerically off the rails: the pivot cap was hit,
    or the packing dual of a cover with non-empty sets reported
    unbounded. The solver budgets treat it like an exhausted budget; it
    is the only solver failure they forgive. *)

val create : unit -> t
(** An empty program: no elements, no sets. *)

val of_sets : float array -> int array array -> t
(** [of_sets weights sets]: a program over [Array.length weights]
    elements. *)

val add_elem : t -> float -> unit
(** Append one element of the given weight; its index is the previous
    {!n_elems}. Raises [Invalid_argument] on a negative or NaN weight. *)

val add_set : t -> int array -> unit
(** Append one set of element indices. Raises [Invalid_argument] on an
    empty set or an unknown element. *)

val n_elems : t -> int
val n_sets : t -> int

val solve : ?deadline:float -> t -> unit
(** Optimise the LP, resuming from the current basis. The pivot cap is
    [100_000 + 200 * (elements + sets)] per call; hitting it raises
    {!Numerical_failure}. Raises [Cdw_util.Timing.Timeout] when the
    cooperative [deadline] (checked every few dozen pivots) has
    passed. *)

val x : t -> float array
(** The cover of the last {!solve}, one value in [\[0, 1\]] per
    element. *)

val value : t -> float
(** The LP optimum of the last {!solve}: the packing dual's objective,
    a lower bound on every cover's weight. *)

val ilp : ?deadline:float -> ?node_limit:int -> t -> bool array
(** Minimum-weight 0/1 cover: {!solve}s the LP (warm) as the root
    relaxation, then, when it is fractional, runs branch-and-bound on
    the most fractional element ([x = 1] branch first). Every node is
    re-solved warm from the root's optimal basis: [x_e = 1] zeroes the
    dual objective of the sets holding [e], [x_e = 0] adds a surplus
    column to row [e], and neither breaks primal feasibility. The
    program is left as the root solve left it. [node_limit] (default
    200_000) bounds the nodes, the root included; exceeding it — or
    the cooperative [deadline] — raises [Cdw_util.Timing.Timeout]. *)

(** {1 Counters}

    Cumulative over the program's life, branch-and-bound nodes
    included. *)

val pivots : t -> int
(** Simplex pivots. *)

val nodes : t -> int
(** Branch-and-bound nodes solved, each {!ilp} call's root counting as
    one. *)

val warm_columns : t -> int
(** Sets added after the program's first {!solve}: columns priced into
    a warm basis instead of a cold start. *)
