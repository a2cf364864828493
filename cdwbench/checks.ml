(* Output checks that need no reference answer, and the digests that
   make two runs of one seed comparable. *)

module Digraph = Cdw_graph.Digraph
module Multicut = Cdw_cut.Multicut
module Utility = Cdw_core.Utility
module Valuation = Cdw_core.Valuation
module Workflow = Cdw_core.Workflow

type state = string * (int * int) list * int list
(** A served user's (id, accepted pairs, cut edge ids), as
    [Serving.session_states] lists them. *)

let ints xs = String.concat "," (List.map string_of_int xs)

let pairs_text ps =
  String.concat ";" (List.map (fun (s, t) -> Printf.sprintf "%d>%d" s t) ps)

(* Digest of final user states, sorted by user as
   [Serving.session_states] returns them. *)
let states_digest (states : state list) =
  let b = Buffer.create (64 * List.length states) in
  List.iter
    (fun (user, pairs, cuts) ->
      Printf.bprintf b "%s|%s|%s\n" user (pairs_text pairs) (ints cuts))
    states;
  Measure.digest (Buffer.contents b)

(* Every state's cut must disconnect all of its accepted pairs on the
   base. Returns the mean share of base utility the states keep (%).
   Users with equal (pairs, cuts) are checked once. *)
let check_states tally base (states : state list) =
  let wf = Workflow.thaw base in
  let g = Workflow.graph wf in
  let base_utility = Utility.total wf in
  let seen = Hashtbl.create 4096 in
  let total = ref 0.0 in
  List.iter
    (fun (user, pairs, cuts) ->
      let ok, kept =
        match Hashtbl.find_opt seen (pairs, cuts) with
        | Some r -> r
        | None ->
            let r =
              match List.map (Digraph.edge g) cuts with
              | exception Invalid_argument _ -> (false, 0.0)
              | edges ->
                  let ok = Multicut.is_multicut g edges ~pairs in
                  let removed = Valuation.remove_with_cascade wf edges in
                  let u = Utility.total wf in
                  Valuation.restore wf removed;
                  (ok, 100.0 *. Measure.ratio u base_utility)
            in
            Hashtbl.add seen (pairs, cuts) r;
            r
      in
      Measure.check tally ok "user %s: cut {%s} leaves an accepted pair {%s} connected"
        user (ints cuts) (pairs_text pairs);
      total := !total +. kept)
    states;
  Measure.ratio !total (float_of_int (List.length states))
