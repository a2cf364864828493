(** Minimum multicut on DAGs (the MINMC problem, Eq. 3 of the paper).

    Given terminal pairs [(s, t)], find a minimum-weight edge set whose
    removal leaves no directed s→t path. NP-hard for ≥ 2 pairs (Bentz
    2011), which is exactly what makes CDW hard.

    The paper's formulation is a 0/1 program: one binary x_e per edge,
    minimise Σ w_e·x_e subject to Σ_{e ∈ p} x_e ≥ 1 for every s→t path
    p of every pair. {!solve} is the one lazy-constraint loop over it,
    shared by RemoveMinMC and the [exact-ilp]/[approx-lp] tier: solve a
    hitting set over the paths discovered so far, test whether the
    chosen edges already disconnect every pair, and if not add the
    surviving paths and repeat. Each round strictly grows the pool (the
    incumbent hits every pooled path, so any survivor is new). On exit
    the exact backends' answer is feasible for the full (implicit) path
    set at the optimum of a relaxation of it — exactly optimal, matching
    what GLPK computes for the paper on the explicit formulation.

    The LP backends ([Ilp], [Auto]'s exact phase, [Lp_rounding]) keep
    one covering program ({!Cdw_lp.Cover}) across the rounds: each
    round's paths are priced into the basis the last round's solve
    ended on, so a round resumes instead of starting over. *)

type backend =
  | Ilp  (** hitting set via LP-based branch-and-bound (paper's setup) *)
  | Bnb  (** combinatorial branch-and-bound *)
  | Greedy  (** Chvátal greedy on the lazily grown pool; approximate *)
  | Lp_rounding
      (** LP relaxation + threshold rounding at 1/L, L the longest
          pooled path: a cut of weight ≤ L · optimum. Polynomial — no
          branch-and-bound. *)
  | Auto of float
      (** [Auto budget_ms]: run the exact ILP under the given time
          budget and fall back to [Greedy] if it expires — dense graphs
          put exact multicut out of reach exactly as they defeat the
          paper's BruteForce. The result's [exact] flag reports which
          branch produced it. *)

type result = {
  edges : Cdw_graph.Digraph.edge list;  (** the multicut, by edge *)
  weight : float;  (** Σ weight over [edges], caller's scale *)
  exact : bool;  (** true for [Ilp]/[Bnb] backends *)
  rounds : int;  (** lazy-generation iterations used *)
  lower_bound : float;
      (** proven lower bound on the optimum: [weight] when [exact]; the
          final pool LP value for [Lp_rounding]; 0 for [Greedy] *)
  violated : int list;
      (** surviving (violated) pairs found at each round's start, in
          round order; the final entry is 0 — how the loop terminated *)
  ratio : float;
      (** guaranteed approximation ratio of [weight] vs the optimum:
          1.0 when [exact]; the longest pooled path length L for
          [Lp_rounding]; [infinity] for [Greedy] *)
  pivots : int;
      (** simplex pivots of the [Ilp]/[Lp_rounding] covering program,
          branch-and-bound nodes included; 0 for the other backends *)
  nodes : int;
      (** [Ilp] branch-and-bound nodes over all rounds, each round's
          root relaxation counting as one (the unit [node_limit] caps) *)
  warm_columns : int;
      (** paths priced into an already-solved basis rather than solved
          from scratch: every path after the first round's *)
}

val solve :
  ?backend:backend ->
  ?deadline:float ->
  ?node_limit:int ->
  Cdw_graph.Digraph.t ->
  weight:(Cdw_graph.Digraph.edge -> float) ->
  pairs:(int * int) list ->
  result
(** [backend] defaults to [Ilp]. The graph is not modified (edges are
    soft-removed and restored internally). [node_limit] bounds each
    round's branch-and-bound tree of the [Ilp] backend (and of [Auto]'s
    ILP phase; {!Cdw_lp.Cover.ilp}). Every backend's cut is passed
    through {!minimalize}. Raises [Cdw_util.Timing.Timeout]
    when the cooperative deadline fires or the node limit is exhausted,
    {!Cdw_lp.Cover.Numerical_failure} when the LP layer gets stuck
    (never from [Auto], which answers from [Greedy] instead while
    [deadline] has slack), and [Invalid_argument] when some pair shares
    a vertex. *)

val is_multicut :
  Cdw_graph.Digraph.t ->
  Cdw_graph.Digraph.edge list ->
  pairs:(int * int) list ->
  bool
(** Does removing [edges] disconnect every pair? (Non-destructive.) *)

val minimalize :
  Cdw_graph.Digraph.t ->
  Cdw_graph.Digraph.edge list ->
  weight:(Cdw_graph.Digraph.edge -> float) ->
  pairs:(int * int) list ->
  Cdw_graph.Digraph.edge list
(** Drop redundant edges from a multicut: try to re-admit edges in
    decreasing weight order, keeping the cut property. It only ever
    lowers the weight; on an exact backend's optimum it can drop only
    zero-weight edges. *)
