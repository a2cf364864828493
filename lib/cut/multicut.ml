module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach
module Timing = Cdw_util.Timing
module Trace = Cdw_obs.Trace
module Cover = Cdw_lp.Cover

type backend = Ilp | Bnb | Greedy | Lp_rounding | Auto of float

type result = {
  edges : Digraph.edge list;
  weight : float;
  exact : bool;
  rounds : int;
  lower_bound : float;
  violated : int list;
  ratio : float;
  pivots : int;
  nodes : int;
  warm_columns : int;
}

let with_removed g edges f =
  List.iter (fun e -> Digraph.remove_edge g e) edges;
  let finish () = List.iter (fun e -> Digraph.restore_edge g e) edges in
  match f () with
  | x ->
      finish ();
      x
  | exception exn ->
      finish ();
      raise exn

let is_multicut g edges ~pairs =
  with_removed g edges (fun () ->
      List.for_all (fun (s, t) -> not (Reach.exists_path g s t)) pairs)

(* One surviving s→t path (as an edge list) by BFS, or None. *)
let find_path g s t =
  let n = Digraph.n_vertices g in
  let parent = Array.make n None in
  let seen = Array.make n false in
  seen.(s) <- true;
  let queue = Queue.create () in
  Queue.add s queue;
  while (not (Queue.is_empty queue)) && not seen.(t) do
    let v = Queue.pop queue in
    Digraph.iter_out g v (fun e ->
        let u = Digraph.edge_dst e in
        if not seen.(u) then begin
          seen.(u) <- true;
          parent.(u) <- Some e;
          Queue.add u queue
        end)
  done;
  if not seen.(t) then None
  else begin
    let rec walk v acc =
      match parent.(v) with
      | None -> acc
      | Some e -> walk (Digraph.edge_src e) (e :: acc)
    in
    Some (walk t [])
  end

(* Variable pool: dense indices for the edge ids mentioned by discovered
   paths — the program never materialises a column for an edge no path
   uses. *)
type pool = {
  var_of_edge : (int, int) Hashtbl.t;
  mutable edge_of_var : Digraph.edge list; (* reversed *)
  mutable n_vars : int;
  mutable sets : int array list; (* reversed; each array = one path *)
  mutable n_sets : int;
  mutable max_len : int; (* longest pooled path, at least 1 *)
}

let fresh_pool () =
  {
    var_of_edge = Hashtbl.create 64;
    edge_of_var = [];
    n_vars = 0;
    sets = [];
    n_sets = 0;
    max_len = 1;
  }

let var_for pool e =
  let id = Digraph.edge_id e in
  match Hashtbl.find_opt pool.var_of_edge id with
  | Some v -> v
  | None ->
      let v = pool.n_vars in
      Hashtbl.add pool.var_of_edge id v;
      pool.edge_of_var <- e :: pool.edge_of_var;
      pool.n_vars <- v + 1;
      v

(* A path's new variables are appended to [lp] (in variable order)
   before the path itself, so the covering program stays the pool's. *)
let add_path ?lp ~weight pool path =
  let var e =
    let v = var_for pool e in
    (match lp with
    | Some lp when v = Cover.n_elems lp -> Cover.add_elem lp (weight e)
    | _ -> ());
    v
  in
  let set = Array.of_list (List.map var path) in
  Option.iter (fun lp -> Cover.add_set lp set) lp;
  pool.sets <- set :: pool.sets;
  pool.n_sets <- pool.n_sets + 1;
  pool.max_len <- max pool.max_len (Array.length set)

let pool_problem pool ~weight =
  let edges = Array.of_list (List.rev pool.edge_of_var) in
  let weights = Array.map weight edges in
  {
    Hitting_set.n_elems = pool.n_vars;
    weights;
    sets = Array.of_list (List.rev pool.sets);
  }

let chosen_edges pool chosen =
  let edges = Array.of_list (List.rev pool.edge_of_var) in
  let acc = ref [] in
  Array.iteri (fun v b -> if b then acc := edges.(v) :: !acc) chosen;
  List.rev !acc

(* LP relaxation + threshold rounding: every pool path has ≤ L edges, so
   some variable on it is ≥ 1/L; keeping all x ≥ 1/L hits every pool
   path and costs ≤ L · OPT_LP. Returns the rounding and OPT_LP. *)
let lp_round ~deadline ~max_len lp =
  Cover.solve ~deadline lp;
  let threshold = (1.0 /. float_of_int max_len) -. 1e-9 in
  (Array.map (fun xe -> xe >= threshold) (Cover.x lp), Cover.value lp)

let minimalize g edges ~weight ~pairs =
  let ordered =
    List.sort (fun a b -> compare (weight b) (weight a)) edges
  in
  (* Remove the whole cut, then re-admit edges most-expensive-first
     whenever re-admission keeps every pair disconnected. Every pair is
     disconnected before [e = u→v] comes back, so afterwards (s, t) is
     connected iff s reaches u and v reaches t: two searches per edge
     instead of one per pair. *)
  List.iter (fun e -> Digraph.remove_edge g e) ordered;
  let disconnected e =
    let to_u = Reach.to_target g (Digraph.edge_src e) in
    let from_v = Reach.from_source g (Digraph.edge_dst e) in
    List.for_all (fun (s, t) -> not (to_u.(s) && from_v.(t))) pairs
  in
  let kept =
    List.filter
      (fun e ->
        Digraph.restore_edge g e;
        if disconnected e then false
        else begin
          Digraph.remove_edge g e;
          true
        end)
      ordered
  in
  List.iter (fun e -> Digraph.restore_edge g e) kept;
  kept

let rec solve ?(backend = Ilp) ?(deadline = infinity) ?node_limit g ~weight
    ~pairs =
  List.iter
    (fun (s, t) ->
      if s = t then invalid_arg "Multicut.solve: pair with s = t")
    pairs;
  (* Normalise weights for the solvers: valuation-derived weights can
     span 12+ orders of magnitude, which wrecks simplex tolerances.
     Scaling the objective does not change the argmin. *)
  let max_weight = ref 0.0 in
  Digraph.iter_edges (fun e -> max_weight := Float.max !max_weight (weight e)) g;
  let scale = if !max_weight > 0.0 then 1.0 /. !max_weight else 1.0 in
  let scaled_weight e = weight e *. scale in
  let pool = fresh_pool () in
  (* The LP backends keep one covering program across the lazy rounds:
     each round's paths are priced into the basis the last round's
     solve ended on. *)
  let lp =
    match backend with
    | Ilp | Lp_rounding -> Some (Cover.create ())
    | Bnb | Greedy | Auto _ -> None
  in
  let lp_value = ref 0.0 in
  let backend_name = function
    | Ilp -> "ilp"
    | Bnb -> "bnb"
    | Greedy -> "greedy"
    | Lp_rounding -> "lp-rounding"
    | Auto _ -> "auto"
  in
  let counters () =
    match lp with
    | Some lp -> (Cover.pivots lp, Cover.nodes lp, Cover.warm_columns lp)
    | None -> (0, 0, 0)
  in
  (* The counters as the previous hitting-set span reported them: each
     span reports the work since, the paths the round priced in
     included. *)
  let reported = ref (0, 0, 0) in
  let solve_pool () =
    Trace.span "multicut.hitting_set"
      ~args:
        [
          ("backend", backend_name backend);
          ("paths", string_of_int pool.n_sets);
        ]
      (fun () ->
        let problem = pool_problem pool ~weight:scaled_weight in
        let chosen =
          match backend with
          | Ilp -> Hitting_set.solve_ilp ~deadline ?node_limit ?lp problem
          | Bnb -> Hitting_set.solve_bnb ~deadline problem
          | Greedy -> Hitting_set.solve_greedy problem
          | Lp_rounding ->
              let chosen, value =
                lp_round ~deadline ~max_len:pool.max_len (Option.get lp)
              in
              lp_value := value;
              chosen
          | Auto _ -> assert false (* dispatched before the loop *)
        in
        let ((pivots, nodes, warm) as now) = counters () in
        let pivots0, nodes0, warm0 = !reported in
        reported := now;
        Trace.add_args
          [
            ("pivots", string_of_int (pivots - pivots0));
            ("nodes", string_of_int (nodes - nodes0));
            ("warm_columns", string_of_int (warm - warm0));
          ];
        chosen_edges pool chosen)
  in
  let exact = match backend with Ilp | Bnb -> true | _ -> false in
  let finish violated candidate =
    (* Any backend can leave redundant edges in the cut, and dropping
       them never raises the weight. An exact cut is within the
       solvers' 1e-6 (scaled) of the optimum, so only an edge lighter
       than that can be redundant: minimalize re-admits none of the
       heavier ones, and they can stay removed while it tries the
       rest. *)
    let candidate =
      let heavy, light =
        if not exact then ([], candidate)
        else List.partition (fun e -> scaled_weight e > 1e-6) candidate
      in
      if light = [] then candidate
      else
        Trace.span "multicut.minimalize" (fun () ->
            heavy
            @ with_removed g heavy (fun () ->
                  minimalize g light ~weight ~pairs))
    in
    let weight_total =
      List.fold_left (fun acc e -> acc +. weight e) 0.0 candidate
    in
    (* An exact cut is feasible for the full problem and optimal for the
       pool relaxation, so its weight is the optimum. The pool LP's
       optimum bounds the full problem's from below. *)
    let lower_bound, ratio =
      match backend with
      | Ilp | Bnb -> (weight_total, 1.0)
      | Lp_rounding -> (!lp_value /. scale, float_of_int pool.max_len)
      | Greedy | Auto _ -> (0.0, infinity)
    in
    let pivots, nodes, warm_columns = counters () in
    {
      edges = candidate;
      weight = weight_total;
      exact;
      rounds = List.length violated - 1;
      lower_bound;
      violated = List.rev violated;
      ratio;
      pivots;
      nodes;
      warm_columns;
    }
  in
  let rec loop violated candidate =
    Timing.check_deadline deadline;
    let surviving =
      Trace.span "multicut.find_paths" (fun () ->
          with_removed g candidate (fun () ->
              List.filter_map (fun (s, t) -> find_path g s t) pairs))
    in
    let violated = List.length surviving :: violated in
    match surviving with
    | [] -> finish violated candidate
    | paths ->
        List.iter (add_path ?lp ~weight:scaled_weight pool) paths;
        loop violated (solve_pool ())
  in
  match backend with
  | Auto budget_ms -> (
      let ilp_deadline =
        Float.min deadline (Timing.deadline_after_ms budget_ms)
      in
      try solve ~backend:Ilp ~deadline:ilp_deadline ?node_limit g ~weight ~pairs
      with
      | Timing.Timeout | Cover.Numerical_failure _
        when deadline = infinity || Timing.now_ms () < deadline
      ->
        (* Budget exhausted (or the simplex got numerically stuck):
           fall back to the greedy approximation under the caller's
           own deadline. *)
        Timing.check_deadline deadline;
        solve ~backend:Greedy ~deadline g ~weight ~pairs)
  | Ilp | Bnb | Greedy | Lp_rounding -> loop [] []
