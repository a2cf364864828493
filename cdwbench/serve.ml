(* The serving workloads: a Traffic stream pumped window by window
   through a serving value, in process (one engine or a shard group) or
   over a Unix socket to a server in this process, journaled or not. *)

module Algorithms = Cdw_core.Algorithms
module Client = Cdw_net.Client
module Domain_acct = Cdw_engine.Domain_acct
module Domain_pool = Cdw_engine.Domain_pool
module Engine = Cdw_engine.Engine
module Json = Cdw_util.Json
module Metrics = Cdw_engine.Metrics
module Server = Cdw_net.Server
module Serving = Cdw_shard.Serving
module Shard_bench = Cdw_shard.Shard_bench
module Stats = Cdw_util.Stats
module Tier = Cdw_engine.Tier
module Trace = Cdw_obs.Trace
module Trace_summary = Cdw_obs.Trace_summary
module Traffic = Cdw_workload.Traffic
module Vec = Cdw_util.Vec
module Wal = Cdw_store.Wal
module Wire = Cdw_net.Wire
module Workbench = Cdw_engine.Workbench
open Measure

type shape = {
  algorithm : Algorithms.name;
  shards : int option;
  drain_domains : int;
      (* [`Parallel n] of in-process drains; over the wire, the server's
         own default drain mode, recorded for the config *)
  wire : bool;
  fsync : Wal.fsync_policy option;  (* journaled when set *)
  mem_cap : int option;  (* session memory cap, bytes *)
  spec : Traffic.spec;  (* the seed is the run's *)
  window_ms : float;  (* synthetic drain window *)
}

let serve_zipf =
  {
    algorithm = Algorithms.Remove_min_mc;
    shards = None;
    drain_domains = 2;
    wire = false;
    fsync = None;
    mem_cap = None;
    spec = { Traffic.default with Traffic.users = 100_000 };
    window_ms = 50.0;
  }

let serve_sharded = { serve_zipf with shards = Some 2 }

(* serve_wire's trials serve a 50k-request prefix of the stream: a
   trial's p99 rests on its one or two slowest windows, and over 100k
   requests (about 3 s) few trials missed every slow spell of a shared
   host, so that ten runs' fast quartiles of p99 spread 0.25. *)
let serve_wire =
  {
    algorithm = Algorithms.Remove_first_edge;
    shards = None;
    drain_domains = Domain_pool.recommended_domains ();
    wire = true;
    fsync = None;
    mem_cap = Some 1_000_000;
    spec =
      {
        Traffic.default with
        Traffic.requests = 50_000;
        install_w = 3;
        withdraw_w = 1;
        query_w = 6;
      };
    window_ms = 50.0;
  }

(* serve_wire journaled, with the ledger resumed after every trial. It
   is held back from BENCHMARK.json: the resumed ledger's states differ
   from the served ones (a snapshot stores each user's pairs sorted,
   and resumed users list them in that order), so its runs report
   failures. *)
let ledger_wire = { serve_wire with fsync = Some (Wal.Every 32) }

(* The traced run serves a shorter prefix of the stream, so that every
   span of it fits the trace buffers. *)
let traced_requests = 20_000

let config shape spec =
  Json.Object
    [
      ("algorithm", Json.String (Algorithms.to_string shape.algorithm));
      ( "base",
        let d = Workbench.default in
        Json.String
          (Printf.sprintf "Workbench.default: %d vertices, k=%d, generator seed %d"
             d.Workbench.n_vertices d.Workbench.stages d.Workbench.seed) );
      ("shards", Json.Number (float_of_int (Option.value ~default:1 shape.shards)));
      ("drain_domains", Json.Number (float_of_int shape.drain_domains));
      ("transport", Json.String (if shape.wire then "unix-socket" else "in-process"));
      ( "fsync",
        Json.String
          (match shape.fsync with
          | Some p -> Wal.fsync_policy_to_string p
          | None -> "no journal") );
      ( "mem_cap_bytes",
        match shape.mem_cap with
        | Some b -> Json.Number (float_of_int b)
        | None -> Json.Null );
      ("stream", Json.String (Traffic.spec_to_string spec));
      ("window_ms", Json.Number shape.window_ms);
    ]

let inputs () =
  let base, _ = Workbench.workload Workbench.default in
  (base, Workbench.connected_pairs base)

type endpoint = {
  serving : Serving.t;
  submit : user:string -> Engine.request -> unit;
  drain : unit -> Engine.reply list;
  server : Server.t option;
  stop : unit -> unit;  (* closes the connection and stops the server *)
}

(* The workload's set-up: everything before the first request. *)
let open_endpoint shape ~dir ~sock base =
  let serving = Serving.create ~algorithm:shape.algorithm ?shards:shape.shards base in
  try
    Option.iter (fun cap -> Serving.set_mem_cap serving (Some cap)) shape.mem_cap;
    Option.iter (fun fsync -> Serving.journal ~fsync ~dir serving) shape.fsync;
    if shape.wire then begin
      let server = Server.start serving (Unix.ADDR_UNIX sock) in
      match Client.connect (Server.sockaddr server) with
      | client ->
          {
            serving;
            submit = Client.submit client;
            drain = (fun () -> Client.drain client);
            server = Some server;
            stop =
              (fun () ->
                Client.close client;
                Server.stop server);
          }
      | exception e ->
          Server.stop server;
          raise e
    end
    else
      let mode = `Parallel shape.drain_domains in
      {
        serving;
        submit = Serving.submit serving;
        drain = (fun () -> Serving.drain ~mode serving);
        server = None;
        stop = ignore;
      }
  with e ->
    Serving.close serving;
    raise e

(* What one pump over the stream measured. *)
type pump = {
  mutable answered : int;  (* requests whose window drained *)
  mutable timed_s : float;  (* Σ windows: first submit to drain return *)
  mutable submit_s : float;  (* Σ submit calls *)
  lat : float Vec.t;  (* ms per request *)
  drain_ms : float Vec.t;  (* per drain call *)
  solve_ms : float Vec.t;  (* reply service time of solver-backed requests *)
}

(* Window-synchronous load from one thread: a window's arrivals are
   submitted back to back, then drained; the next window starts when the
   drain returns. A request's latency runs from the start of its submit
   call to the return of the drain that answered it. Every submit must
   get exactly one reply, and that reply must be [Ok]. *)
let pump tally shape ep spec ~pairs =
  let p =
    {
      answered = 0;
      timed_s = 0.0;
      submit_s = 0.0;
      lat = Vec.create ();
      drain_ms = Vec.create ();
      solve_ms = Vec.create ();
    }
  in
  let gen = Traffic.create spec ~pairs in
  let n = spec.Traffic.requests in
  let starts = Array.make n 0.0 and users = Array.make n "" in
  let next = ref 0 in
  let owed = Hashtbl.create 4096 in
  let drain () =
    let first = p.answered in
    if !next > first then begin
      let t0 = now () in
      let replies = ep.drain () in
      let t1 = now () in
      Vec.push p.drain_ms (1000.0 *. (t1 -. t0));
      p.timed_s <- p.timed_s +. (t1 -. starts.(first));
      for i = first to !next - 1 do
        Vec.push p.lat (1000.0 *. (t1 -. starts.(i)))
      done;
      Hashtbl.reset owed;
      for i = first to !next - 1 do
        let k = Option.value ~default:0 (Hashtbl.find_opt owed users.(i)) in
        Hashtbl.replace owed users.(i) (k + 1)
      done;
      attempt tally ~n:(!next - first);
      List.iter
        (fun (r : Engine.reply) ->
          (match r.Engine.result with
          | Ok () -> ()
          | Error msg -> fail tally "error reply to %s: %s" r.Engine.user msg);
          (match r.Engine.request with
          | Engine.Add (_ :: _) | Engine.Withdraw _ ->
              Vec.push p.solve_ms r.Engine.time_ms
          | Engine.Add [] | Engine.Resolve -> ());
          match Hashtbl.find_opt owed r.Engine.user with
          | Some k when k > 0 -> Hashtbl.replace owed r.Engine.user (k - 1)
          | _ -> fail tally "unexpected reply for %s" r.Engine.user)
        replies;
      Hashtbl.iter
        (fun u k -> if k > 0 then fail tally ~n:k "%d submit(s) of %s got no reply" k u)
        owed;
      p.answered <- !next
    end
  in
  let rec loop window_end =
    match Traffic.next gen with
    | None -> drain ()
    | Some { Traffic.at_ms; user; op } ->
        let window_end =
          if at_ms < window_end then window_end
          else begin
            drain ();
            let skipped = Float.of_int (truncate ((at_ms -. window_end) /. shape.window_ms)) in
            window_end +. ((skipped +. 1.0) *. shape.window_ms)
          end
        in
        let t0 = now () in
        starts.(!next) <- t0;
        users.(!next) <- user;
        incr next;
        ep.submit ~user (Shard_bench.request_of_op op);
        p.submit_s <- p.submit_s +. (now () -. t0);
        loop window_end
  in
  (match loop shape.window_ms with
  | () -> ()
  | exception e ->
      let lost = n - p.answered in
      attempt tally ~n:lost;
      fail tally ~n:lost "serving raised %s; %d request(s) unanswered"
        (Printexc.to_string e) lost);
  p

type store = {
  disk_bytes : int;
  snapshot_bytes : int;
  recover_s : float;
  replayed : int;
}

(* What one trial leaves: the serving value's final states and
   registries, read once the load is over and before it is closed. *)
type trial = {
  setup_s : float;
  pump : pump;
  states : Checks.state list;
  base : Cdw_core.Workflow.t;
  digest : string;
  heap_mb : float;
  metrics : Metrics.t;
  metrics_json : Json.t;
  tier : Tier.stats option;
  domains : Domain_acct.stats list;
  net_errors : int;
  store : store option;
  trace : Json.t option;
}

let work_dir = ".cdwbench-work"

(* Measure a closed run's ledger and time [Serving.resume] of it: the
   resumed state must equal the served one. *)
let recover tally shape ~dir served =
  let disk_bytes = du dir and snapshot_bytes = du ~only:"snapshot.json" dir in
  attempt tally;
  match timed (fun () -> Serving.resume ?fsync:shape.fsync dir) with
  | Error e, _ ->
      fail tally "resume: %s" e;
      None
  | Ok r, recover_s ->
      let recovered = Serving.session_states r.Serving.serving in
      Serving.close r.Serving.serving;
      if recovered <> served then
        fail tally "resumed ledger differs from the served state (%s)"
          (if List.compare_lengths recovered served <> 0 then "user count"
           else
             Printf.sprintf "%d users"
               (List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 recovered served));
      Some { disk_bytes; snapshot_bytes; recover_s; replayed = r.Serving.replayed }

(* One fresh serving value over the whole stream; with [trace], the
   program's spans of its set-up and load. *)
let trial tally shape ~base ~pairs ~spec ~trace =
  let dir = Filename.concat work_dir "ledger" in
  let sock = Filename.concat work_dir "serve.sock" in
  rm_rf dir;
  let serve () =
    let ep, setup_s = timed (fun () -> open_endpoint shape ~dir ~sock base) in
    (ep, setup_s, pump tally shape ep spec ~pairs)
  in
  match
    if trace then
      let x, spans = traced serve in
      (x, Some spans)
    else (serve (), None)
  with
  | exception e ->
      let n = spec.Traffic.requests in
      attempt tally ~n;
      fail tally ~n "set-up raised %s" (Printexc.to_string e);
      None
  | (ep, setup_s, pump), trace ->
      let heap_mb = heap_mb () in
      ep.stop ();
      let states = Serving.session_states ep.serving in
      let t =
        {
          setup_s;
          pump;
          states;
          base = Serving.base ep.serving;
          digest = Checks.states_digest states;
          heap_mb;
          metrics = Serving.metrics ep.serving;
          metrics_json = Serving.metrics_json ep.serving;
          tier = Serving.tier_stats ep.serving;
          domains = Serving.domain_stats ep.serving;
          net_errors =
            (match ep.server with
            | Some s -> Metrics.counter (Server.metrics s) "net.errors"
            | None -> 0);
          store = None;
          trace;
        }
      in
      Serving.close ep.serving;
      let store =
        match shape.fsync with
        | None -> None
        | Some _ -> recover tally shape ~dir states
      in
      rm_rf dir;
      Some { t with store }

(* Set up and tear down without serving: more samples of set-up time. *)
let setup_only shape ~base =
  let dir = Filename.concat work_dir "setup" in
  let sock = Filename.concat work_dir "setup.sock" in
  rm_rf dir;
  let ep, sec = timed (fun () -> open_endpoint shape ~dir ~sock base) in
  ep.stop ();
  Serving.close ep.serving;
  rm_rf dir;
  sec

(* End-to-end figures of one trial. *)
let figures p =
  let lat = Vec.to_array p.lat in
  Array.sort Float.compare lat;
  [
    ("throughput_rps", ratio (float_of_int p.answered) p.timed_s);
    ("latency_p50_ms", quantile lat 0.5);
    ("latency_p99_ms", quantile lat 0.99);
    (* reply times are whole microseconds: floor them at one *)
    ( "solve_geomean_ms",
      geomean (List.map (Float.max 1e-3) (Vec.to_list p.solve_ms)) );
  ]

(* A run's figures: the fast quartile of its trials' figures (see
   [Measure.fast_quartile]). *)
let run_figures = function
  | [] -> []
  | first :: _ as per_trial ->
      List.map
        (fun (name, _) ->
          ( name,
            fast_quartile ~higher_is_better:(name = "throughput_rps")
              (List.map (List.assoc name) per_trial) ))
        first

let summary_total m key =
  match Metrics.summary m key with
  | Some s -> float_of_int s.Stats.n *. s.Stats.mean
  | None -> 0.0

(* Mean encoded size of the stream's submit frames. *)
let bytes_per_request spec ~pairs =
  let gen = Traffic.create spec ~pairs in
  let rec go bytes =
    match Traffic.next gen with
    | None -> bytes
    | Some { Traffic.user; op; _ } ->
        let frame =
          Wire.encode_request
            (Wire.Submit { user; request = Shard_bench.request_of_op op })
        in
        go (bytes + String.length frame)
  in
  ratio (float_of_int (go 0)) (float_of_int spec.Traffic.requests)

let solver_runs m =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"solve." name then acc + v else acc)
    0 (Metrics.counters m)

let json_number path json =
  let rec go j = function
    | [] -> Json.to_float j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0.0 (go json path)

(* The store layer's figures of a journaled untraced trial [a] and
   traced trial [b]: recorded on the context line of ledger_wire, which
   is held back from BENCHMARK.json. *)
let store_figures spec (a : trial) (b : trial) =
  match a.store with
  | None -> []
  | Some st ->
      let counter name = Json.Number (float_of_int (Metrics.counter a.metrics name)) in
      let spans = span_table (Option.get b.trace) in
      let ms name = Json.Number (span_ms spans name) in
      [
        ( "store",
          Json.Object
            [
              ("store.wal_appends", counter "store.wal.appends");
              ("store.fsyncs", counter "store.wal.fsyncs");
              ("store.snapshots", counter "store.snapshots");
              ("store.wal_bytes", counter "store.wal.appended_bytes");
              ("store.snapshot_bytes", Json.Number (float_of_int st.snapshot_bytes));
              ("store.append_ms", ms "wal.append");
              ("store.fsync_ms", ms "wal.fsync");
              ("store.snapshot_ms", ms "store.snapshot");
              ("store.replayed_records", Json.Number (float_of_int st.replayed));
              ("store.recover_s", Json.Number st.recover_s);
              ( "store.disk_bytes_per_request",
                Json.Number
                  (ratio (float_of_int st.disk_bytes) (float_of_int spec.Traffic.requests)) );
            ] );
      ]

(* Per-layer values of an untraced trial [a] and a traced trial [b] of
   the same stream. Timer- and counter-based values come from [a];
   [untraced_s] is the untraced timed phase the tracing overhead is
   measured against. *)
let layers shape spec ~pairs (a : trial) (b : trial) ~untraced_s =
  let m = a.metrics in
  let counter name = float_of_int (Metrics.counter m name) in
  let drains = float_of_int (Vec.length a.pump.drain_ms) in
  let drain_sorted = sorted a.pump.drain_ms in
  let spans = span_table (Option.get b.trace) in
  let tier =
    match a.tier with
    | None -> []
    | Some st ->
        [
          ("tier.evictions", float_of_int st.Tier.evictions);
          ("tier.hydrations", float_of_int st.Tier.hydrations);
          ("tier.resident_peak", float_of_int st.Tier.resident_peak);
        ]
  in
  let shard =
    match a.domains with
    | [] -> []
    | ds ->
        let busy = List.map (fun s -> float_of_int s.Domain_acct.s_busy_us /. 1000.0) ds in
        let merge_ms =
          match Trace_summary.scaling_of_json (Option.get b.trace) with
          | Ok sc -> sc.Trace_summary.sc_merge_ms
          | Error _ -> 0.0
        in
        [
          ("shard.barrier_wait_fraction", Domain_acct.barrier_fraction ds);
          ("shard.imbalance", ratio (List.fold_left Float.max 0.0 busy) (Stats.mean busy));
          ( "shard.inbox_depth_peak",
            float_of_int
              (List.fold_left (fun acc s -> max acc s.Domain_acct.s_inbox_depth_peak) 0 ds) );
          ("shard.merge_ms", merge_ms);
        ]
        @ List.mapi (fun i ms -> (Printf.sprintf "shard.busy_ms.%d" i, ms)) busy
  in
  let per_request s = ratio s (float_of_int spec.Traffic.requests) in
  let drain_calls =
    if shape.wire then
      [
        ("net.bytes_per_request", bytes_per_request spec ~pairs);
        ("net.client_submit_us", 1e6 *. per_request a.pump.submit_s);
        ( "net.drain_overhead_ms",
          ratio (Vec.fold_left ( +. ) 0.0 a.pump.drain_ms -. summary_total m "drain") drains );
        ("net.errors", float_of_int a.net_errors);
        ( "engine.drain_p50_ms",
          Option.value ~default:0.0 (Metrics.percentile m "drain" 0.5) );
        ( "engine.drain_max_ms",
          match Metrics.summary m "drain" with
          | Some s -> s.Stats.max
          | None -> 0.0 );
      ]
    else
      [
        ("engine.submit_us", 1e6 *. per_request a.pump.submit_s);
        ("engine.drain_p50_ms", quantile drain_sorted 0.5);
        ("engine.drain_max_ms", quantile drain_sorted 1.0);
      ]
  in
  let hits = counter "index.paths.hit" and misses = counter "index.paths.miss" in
  Catalogue.of_spans spans
  @ drain_calls @ tier @ shard
  @ [
      ("engine.requests_per_drain", ratio (float_of_int spec.Traffic.requests) drains);
      ("engine.solver_runs", float_of_int (solver_runs m));
      ("engine.coalesced", counter "engine.coalesced");
      ("engine.full_resolves", json_number [ "sessions"; "full_resolves" ] a.metrics_json);
      (* Solver time over the drain capacity it ran in: a single
         engine's drain fans out over [drain_domains] domains, while each
         shard of a group drains on its one pinned domain. *)
      ( "engine.solve_share",
        ratio (summary_total m "solve")
          (summary_total m "drain"
          *. float_of_int (if shape.shards = None then shape.drain_domains else 1)) );
      ("engine.path_cache_hit_ratio", ratio hits (hits +. misses));
      ("obs.trace_overhead", ratio b.pump.timed_s untraced_s);
    ]

(* What a run keeps of a trial. The rest is dropped at once, so that
   one trial's heap does not slow the next. *)
type kept = {
  k_pump : pump;
  k_digest : string;
  k_setup_s : float;
  k_store : store option;
}

let run shape tally ~seed ~seconds ~trace =
  let base, pairs = inputs () in
  let spec = { shape.spec with Traffic.seed } in
  rm_rf work_dir;
  Unix.mkdir work_dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf work_dir) @@ fun () ->
  if not trace then begin
    let setups = ref [] in
    (* Whole trials, each from a compacted heap, until [seconds] have
       gone by. The first trial's final states are checked and give
       the run's utility, heap and user count. *)
    let first = ref None in
    let keep (t : trial) =
      if !first = None then
        first := Some (Checks.check_states tally t.base t.states, t.heap_mb, List.length t.states);
      {
        k_pump = t.pump;
        k_digest = t.digest;
        k_setup_s = t.setup_s;
        k_store = t.store;
      }
    in
    let t0 = now () in
    let rec go acc =
      if List.length acc >= 2 && now () -. t0 >= seconds then List.rev acc
      else begin
        (* Set-up is cheap next to serving: it is sampled three more
           times before every trial, so that its median rests on enough
           samples spread over the run. *)
        Gc.full_major ();
        for _ = 1 to 3 do
          setups := setup_only shape ~base :: !setups
        done;
        Gc.compact ();
        match trial tally shape ~base ~pairs ~spec ~trace:false with
        | None -> List.rev acc
        | Some t -> go (keep t :: acc)
      end
    in
    let trials = go [] in
    let utility, heap, users = Option.value ~default:(nan, nan, 0) !first in
    let digest = match trials with k :: _ -> k.k_digest | [] -> "" in
    List.iteri
      (fun i k ->
        if i > 0 then
          check tally (k.k_digest = digest) "trial %d final states differ from trial 1" (i + 1))
      trials;
    let pumps = List.map (fun k -> k.k_pump) trials in
    let per_trial = List.map figures pumps in
    let stores = List.filter_map (fun k -> k.k_store) trials in
    let per_request s = ratio (float_of_int s.disk_bytes) (float_of_int spec.Traffic.requests) in
    {
      Catalogue.context =
        [
          ("config", config shape spec);
          ("digest", Json.String digest);
          ("trials", Json.Number (float_of_int (List.length trials)));
          ("users", Json.Number (float_of_int users));
          ( "latency_samples",
            Json.Number
              (float_of_int (List.fold_left (fun n p -> n + Vec.length p.lat) 0 pumps)) );
          ( "per_trial",
            Json.Array
              (List.map
                 (fun fs -> Json.Object (List.map (fun (n, v) -> (n, Json.Number v)) fs))
                 per_trial) );
        ];
      values =
        run_figures per_trial
        @ [
            ("utility_retained_pct", utility);
            ("heap_peak_mb", heap);
            ("setup_s", median (!setups @ List.map (fun k -> k.k_setup_s) trials));
          ];
      also =
        (match stores with
        | [] -> []
        | _ ->
            [
              ("recover_s", median (List.map (fun s -> s.recover_s) stores));
              ("disk_bytes_per_request", median (List.map per_request stores));
            ]);
    }
  end
  else begin
    let spec = { spec with Traffic.requests = traced_requests } in
    (* A traced trial between two untraced ones: the untraced trials
       give timers, counters and the tracing overhead's base, the traced
       one the program's spans. *)
    let a = trial tally shape ~base ~pairs ~spec ~trace:false in
    let b = trial tally shape ~base ~pairs ~spec ~trace:true in
    let c = trial tally shape ~base ~pairs ~spec ~trace:false in
    match (a, b, c) with
    | Some a, Some b, Some c ->
        ignore (Checks.check_states tally a.base a.states);
        check tally (a.digest = b.digest) "traced final states differ from untraced";
        check tally (a.digest = c.digest) "untraced trials end in different final states";
        {
          Catalogue.context =
            [ ("config", config shape spec); ("digest", Json.String a.digest) ]
            @ store_figures spec a b;
          values = layers shape spec ~pairs a b ~untraced_s:(Stats.mean [ a.pump.timed_s; c.pump.timed_s ]);
          also = [];
        }
    | _ -> { Catalogue.context = []; values = []; also = [] }
  end
