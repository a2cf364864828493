(** The CDW-LA solving algorithms (§5 of the paper) and two extensions.

    Every function leaves its input workflow untouched and returns an
    {!outcome} holding a solved copy. All algorithms return *feasible*
    solutions — no constrained user→purpose path survives — and differ
    in utility and cost:

    - {!remove_random_edge} (Alg. 1): random edge per path; baseline.
    - {!remove_first_edge} (Alg. 2): first edge per path ("do not even
      collect the data type"); {!remove_last_edge} is the variant
      discussed in §6.
    - {!remove_min_cuts} (Alg. 3): greedy per-constraint minimum s–t
      cut, weights refreshed between constraints.
    - {!remove_min_mc} (Alg. 4): one global minimum multicut with
      valuation-derived weights; exact for MINMC but not always for
      CDW-LA (§6), near-optimal in practice (Table 3).
    - {!brute_force} (Alg. 5): exhaustive search over one-edge-per-path
      choices; optimal, exponential.
    - {!brute_force_bnb} (extension): same optimum via branch-and-bound
      with the monotone-utility upper bound; usually far fewer
      candidates.

    Long-running searches honour a cooperative [deadline]
    ({!Cdw_util.Timing.Timeout}) and a path-enumeration cap
    ({!Cdw_graph.Paths.Too_many_paths}). *)

(** {1 Options}

    Every tuning knob of every algorithm, gathered in one record. The
    per-algorithm functions below remain as thin wrappers for the common
    cases; {!solve} is the single entry point the CLI, the experiment
    harness, {!Incremental} and the serving engine go through. *)
module Options : sig
  type path_provider =
    Workflow.t ->
    source:int ->
    target:int ->
    Cdw_graph.Digraph.edge list list
  (** Supplies the *live* s→t paths of the given workflow, replacing the
      default DFS enumeration of the path-based algorithms. The serving
      engine uses this to answer path queries from a shared
      per-(user, purpose) cache: enumerate once on the immutable base,
      filter by edge liveness per request. The provider must return
      exactly the paths [Cdw_graph.Paths.all_paths] would, in the same
      order. *)

  type t = {
    rng : Cdw_util.Splitmix.t option;
        (** randomness for [Remove_random_edge]; [None] uses a fixed
            default seed *)
    deadline : float;
        (** absolute cooperative deadline ({!Cdw_util.Timing}); honoured
            by the multicut backend and the exhaustive searches. Default
            [infinity]. *)
    max_paths : int option;
        (** path-enumeration cap for the exhaustive searches *)
    scheme : Utility.weight_scheme option;
        (** cut-weight scheme of Algorithms 3/4 (default
            [Path_count_mass], see DESIGN.md §2) *)
    backend : Cdw_cut.Multicut.backend;
        (** multicut backend of Algorithm 4. Default [Auto 5000.0]:
            exact ILP with a 5 s budget, greedy fallback on dense
            instances where exact multicut blows up. *)
    utility : (Workflow.t -> float) option;
        (** objective for the exhaustive searches; generalises to
            arbitrary CDW models (must be monotone non-increasing under
            edge removal for [Brute_force_bnb]) *)
    utility_before : float option;
        (** memoized utility of the *input* workflow, skipping the
            before-solve evaluation. Must equal what the utility
            evaluator would return on the input; the serving engine
            passes the shared base's utility here when solving from the
            pristine base. *)
    paths_for : path_provider option;
    node_budget : int option;
        (** per-round branch-and-bound node cap of [Exact_ilp]
            ({!Cdw_cut.Multicut.solve}'s [node_limit]); exhausting it
            falls back to RemoveMinMC's greedy backend *)
    solver_budget_ms : float option;
        (** per-request wall-clock budget of [Exact_ilp]/[Approx_lp],
            *tighter* than [deadline]: exhausting it (or a numerically
            stuck simplex) falls back to RemoveMinMC's greedy backend
            instead of raising, so serving always answers *)
  }

  val default : t
  (** [None]/[infinity] everywhere, [Auto 5000.0] backend — the
      behaviour of each wrapper function called with no optional
      arguments. *)
end

type outcome = {
  workflow : Workflow.t;  (** solved copy of the input *)
  removed : Cdw_graph.Digraph.edge list;
      (** edges removed from the copy, cascades included *)
  utility_before : float;
  utility_after : float;
  candidates : int;
      (** candidates evaluated (brute-force searches; 1 otherwise) *)
  tier : string option;
      (** which tier answered, for [Exact_ilp]/[Approx_lp]:
          ["exact-ilp"], ["approx-lp"], or ["fallback:remove-min-mc"]
          when the solver budget ran out. [None] for the other
          algorithms. *)
  bound : float option;
      (** proven lower bound on the optimal cut weight obtained by the
          solver tier (tight for ["exact-ilp"]); [None] on fallback and
          for the other algorithms *)
}

val utility_percent : outcome -> float
(** [100 · after / before]. *)

val pp_outcome : Workflow.t -> Format.formatter -> outcome -> unit

val remove_random_edge :
  ?rng:Cdw_util.Splitmix.t -> Workflow.t -> Constraint_set.t -> outcome

val remove_first_edge : Workflow.t -> Constraint_set.t -> outcome

val remove_last_edge : Workflow.t -> Constraint_set.t -> outcome

val remove_min_cuts :
  ?scheme:Utility.weight_scheme -> Workflow.t -> Constraint_set.t -> outcome

val remove_min_mc :
  ?backend:Cdw_cut.Multicut.backend ->
  ?scheme:Utility.weight_scheme ->
  ?deadline:float ->
  Workflow.t ->
  Constraint_set.t ->
  outcome
(** [backend] defaults to [Auto 5000.0]: exact ILP with a 5 s budget,
    greedy fallback on dense instances where exact multicut blows up
    (cf. the paper's dataset 1c discussion). *)

val brute_force :
  ?deadline:float ->
  ?max_paths:int ->
  ?utility:(Workflow.t -> float) ->
  Workflow.t ->
  Constraint_set.t ->
  outcome
(** [utility] generalises the objective to arbitrary CDW models
    (§5: the exhaustive search works for any valuation/utility
    functions); see {!Models}. Defaults to CDW-LA's Eq. 1. *)

val brute_force_bnb :
  ?deadline:float ->
  ?max_paths:int ->
  ?utility:(Workflow.t -> float) ->
  Workflow.t ->
  Constraint_set.t ->
  outcome
(** The monotone-pruning bound requires [utility] to be monotone
    non-increasing under edge removal (true for every model in
    {!Models}). *)

type name =
  | Remove_random_edge
  | Remove_first_edge
  | Remove_last_edge
  | Remove_min_cuts
  | Remove_min_mc
  | Brute_force
  | Brute_force_bnb
  | Exact_ilp
      (** RemoveMinMC's solve path on {!Cdw_cut.Multicut}'s exact [Ilp]
          backend — the ground-truth oracle. Budgeted by
          [Options.node_budget] / [Options.solver_budget_ms]; on
          exhaustion answers from RemoveMinMC's [Greedy] backend
          ([outcome.tier] says which tier did). *)
  | Approx_lp
      (** The same path on {!Cdw_cut.Multicut}'s [Lp_rounding] backend:
          a guaranteed ratio (longest discovered path length); same
          budget/fallback. *)

val all_names : name list

val to_string : name -> string

val of_string : string -> name option

val solve :
  ?options:Options.t -> name -> Workflow.t -> Constraint_set.t -> outcome
(** Dispatch by name under the given {!Options.t} (default
    {!Options.default}) — the unified entry point. Each algorithm reads
    only the options that concern it, exactly as the wrapper functions
    above document. *)

val run :
  ?rng:Cdw_util.Splitmix.t ->
  ?deadline:float ->
  ?max_paths:int ->
  name ->
  Workflow.t ->
  Constraint_set.t ->
  outcome
(** [run ?rng ?deadline ?max_paths] is {!solve} with just those three
    options set; kept for callers predating {!Options}. *)
