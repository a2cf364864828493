(* Every metric the benchmark reports, by name and unit, in the order of
   BENCHMARK.json. A workload supplies values by name; a per-layer
   metric of a layer the workload leaves idle reads 0. *)

module Json = Cdw_util.Json

let end_to_end =
  [
    ("throughput_rps", "req/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("solve_geomean_ms", "ms");
    ("utility_retained_pct", "%");
    ("heap_peak_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("graph.paths", "count");
    ("graph.enumerate_ms", "ms");
    ("graph.index_enumerate_ms", "ms");
    ("graph.reach_snapshot_ms", "ms");
    ("core.weights_ms", "ms");
    ("core.weights_span_ms", "ms");
    ("core.enforce_ms", "ms");
    ("cut.multicut_ms", "ms");
    ("cut.rounds", "count");
    ("cut.exact_fraction", "ratio");
    ("cut.find_paths_ms", "ms");
    ("cut.minimalize_ms", "ms");
    ("cut.dense30_solve_ms", "ms");
    ("lp.hitting_set_ms", "ms");
    ("lp.hitting_set_calls", "count");
    ("engine.submit_us", "us");
    ("engine.drain_p50_ms", "ms");
    ("engine.drain_max_ms", "ms");
    ("engine.requests_per_drain", "count");
    ("engine.dequeue_ms", "ms");
    ("engine.plan_ms", "ms");
    ("engine.execute_ms", "ms");
    ("engine.settle_ms", "ms");
    ("engine.solver_runs", "count");
    ("engine.coalesced", "count");
    ("engine.full_resolves", "count");
    ("engine.solve_share", "ratio");
    ("engine.path_cache_hit_ratio", "ratio");
    ("tier.evictions", "count");
    ("tier.hydrations", "count");
    ("tier.resident_peak", "count");
    ("tier.hydrate_ms", "ms");
    ("tier.evict_ms", "ms");
    ("shard.barrier_wait_fraction", "ratio");
    ("shard.busy_ms.0", "ms");
    ("shard.busy_ms.1", "ms");
    ("shard.imbalance", "ratio");
    ("shard.inbox_depth_peak", "count");
    ("shard.merge_ms", "ms");
    ("net.bytes_per_request", "B");
    ("net.client_submit_us", "us");
    ("net.drain_overhead_ms", "ms");
    ("net.request_ms", "ms");
    ("net.errors", "count");
    ("obs.trace_overhead", "ratio");
    ("obs.trace_dropped", "count");
  ]

(* Metrics that only report something measured elsewhere in the same
   run: recorded on the context line, not gated. *)
let context_only =
  [
    ("dense30_solve_ms", "ms");
    ("recover_s", "s");
    ("disk_bytes_per_request", "B");
    ("failed_fraction", "ratio");
  ]

(* Per-layer metrics read from the program's own spans (total ms, or a
   span count): one traced pass of the workload. *)
let of_spans spans =
  let ms name = Measure.span_ms spans name in
  [
    ("graph.index_enumerate_ms", ms "index.enumerate");
    ("graph.reach_snapshot_ms", ms "index.snapshot");
    ("core.weights_span_ms", ms "solve.weights");
    ("core.enforce_ms", ms "solve.enforce");
    ("cut.find_paths_ms", ms "multicut.find_paths");
    ("cut.minimalize_ms", ms "multicut.minimalize");
    ("lp.hitting_set_ms", ms "multicut.hitting_set");
    ( "lp.hitting_set_calls",
      float_of_int (Measure.span_count spans "multicut.hitting_set") );
    ("engine.dequeue_ms", ms "drain.dequeue");
    ("engine.plan_ms", ms "drain.plan");
    ("engine.execute_ms", ms "drain.execute");
    ("engine.settle_ms", ms "drain.settle");
    ("tier.hydrate_ms", ms "tier.hydrate");
    ("tier.evict_ms", ms "tier.evict");
    ("net.request_ms", ms "net.request");
    ("obs.trace_dropped", float_of_int (Cdw_obs.Trace.dropped ()));
  ]

(* What a workload run hands back: the context fields it records, the
   values of the metrics it reports, and context-only metric values. *)
type outcome = {
  context : (string * Json.t) list;
  values : (string * float) list;
  also : (string * float) list;
}

exception Bad_metric of string

let number name v =
  if Float.is_finite v then Json.Number v
  else raise (Bad_metric (Printf.sprintf "%s is %F" name v))

let metric_object catalogue ~missing_is_zero values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        raise (Bad_metric ("not in the catalogue: " ^ name)))
    values;
  Json.Object
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name values with
           | Some v -> v
           | None when missing_is_zero -> 0.0
           | None -> raise (Bad_metric ("not measured: " ^ name))
         in
         ( name,
           Json.Object [ ("value", number name v); ("unit", Json.String unit) ]
         ))
       catalogue)

(* The last line of a run: correctness, the failure tally and the
   metrics of the run's kind (end-to-end or per-layer). *)
let result_line ~trace (tally : Measure.tally) values =
  let metrics =
    if trace then metric_object per_layer ~missing_is_zero:true values
    else metric_object end_to_end ~missing_is_zero:false values
  in
  Json.Object
    [
      ("correct", Json.Bool (tally.Measure.failed = 0));
      ("attempted", Json.Number (float_of_int (max 1 tally.Measure.attempted)));
      ("failed", Json.Number (float_of_int tally.Measure.failed));
      ("metrics", metrics);
    ]

let context_metrics (tally : Measure.tally) also =
  let values =
    ( "failed_fraction",
      Measure.ratio (float_of_int tally.Measure.failed) (float_of_int tally.Measure.attempted) )
    :: also
  in
  metric_object
    (List.filter (fun (name, _) -> List.mem_assoc name values) context_only)
    ~missing_is_zero:false values
