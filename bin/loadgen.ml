(* Load generator for the admission service.

   e2e-loadgen --requests 2000 --seed 42 -j 4 --out BENCH_serve.json
   e2e-loadgen --self-serve --connections 8 --pipeline 16 --requests 2000

   Replays a Prng-seeded request stream — submits of fresh task sets,
   permuted resubmissions (canonical-cache exercisers), incremental
   adds, queries and drops — against an in-process Batcher (default;
   measures the engine itself), against an in-process concurrent TCP
   server on an ephemeral port (--self-serve; measures the whole
   transport) or against in-process shards behind an in-process
   dispatcher (--spawn-shards).  TCP modes replay over --connections
   parallel client domains, each closed-loop with up to --pipeline
   requests in flight, on disjoint per-connection shop namespaces so
   every connection's reply log is deterministic.  Reports throughput, latency percentiles and the
   cache hit rate, optionally as a JSON file (`make bench-serve`
   writes BENCH_serve.json, including a connections x batch
   saturation sweep). *)

open Cmdliner
module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol
module Rtrace = E2e_serve.Rtrace
module Server = E2e_serve.Server
module Wire = E2e_serve.Wire
module Pool = E2e_exec.Pool
module Obs = E2e_obs.Obs
module Json = E2e_obs.Json
module Quantile = E2e_obs.Quantile

(* ------------------------------------------------------------------ *)
(* Request-stream generation: a pure function of the seed.            *)

let gen_instance g =
  let n = 3 + Prng.int g 4 and m = 3 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

(* Same instance, tasks relabelled: a canonical-cache hit that is not a
   textual repeat. *)
let permute g (shop : Recurrence_shop.t) =
  let order = Prng.permutation g (Recurrence_shop.n_tasks shop) in
  let tasks =
    Array.mapi
      (fun p orig ->
        let t = shop.Recurrence_shop.tasks.(orig) in
        Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
      order
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* [cid] derives an independent per-connection stream on a disjoint
   shop namespace ([c<cid>-s<k>] instead of [s<k>]): an admission
   decision reads only its own shop's committed set, so each
   connection's replies are a pure function of its own stream — the
   invariant behind the concurrent transport's per-connection
   determinism checks.  Without [cid] the stream is byte-identical to
   what this generator always produced. *)
let gen_stream ?cid ~seed ~requests () =
  let g, prefix =
    match cid with
    | None -> (Prng.create seed, "s")
    | Some c -> (Prng.of_path [| seed; 0x10ad; c |], Printf.sprintf "c%d-s" c)
  in
  let submitted = ref [] (* (shop, instance), most recent first *) in
  let fresh = ref 0 in
  let fresh_shop () =
    incr fresh;
    Printf.sprintf "%s%d" prefix !fresh
  in
  let pick_shop g =
    match !submitted with
    | [] -> None
    | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.40 || !submitted = [] then begin
        let shop = fresh_shop () and instance = gen_instance g in
        submitted := (shop, instance) :: !submitted;
        Admission.Submit { shop; instance }
      end
      else if p < 0.55 then begin
        (* Resubmit a permutation of an earlier set under a new name. *)
        let _, earlier = Option.get (pick_shop g) in
        let shop = fresh_shop () and instance = permute g earlier in
        submitted := (shop, instance) :: !submitted;
        Admission.Submit { shop; instance }
      end
      else if p < 0.65 then begin
        (* Exact resubmission under a new name: the common "same client,
           new session" pattern the structural keyer short-circuits. *)
        let _, earlier = Option.get (pick_shop g) in
        let shop = fresh_shop () in
        submitted := (shop, earlier) :: !submitted;
        Admission.Submit { shop; instance = earlier }
      end
      else if p < 0.83 then begin
        let shop, committed = Option.get (pick_shop g) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let count = 1 + Prng.int g 2 in
        let tasks =
          List.init count (fun _ ->
              let taus =
                Array.init k (fun _ -> Prng.rat_uniform g ~den:100 (Rat.make 1 2) (Rat.of_int 2))
              in
              let total = Rat.sum_array taus in
              let release = Prng.rat_uniform g ~den:100 Rat.zero (Rat.of_int 4) in
              let window = Rat.mul_int total (2 + Prng.int g 3) in
              (release, Rat.add release window, taus))
        in
        Admission.Add { shop; tasks }
      end
      else if p < 0.95 then
        let shop = match pick_shop g with Some (s, _) -> s | None -> "none" in
        Admission.Query { shop }
      else begin
        let shop = match pick_shop g with Some (s, _) -> s | None -> "none" in
        submitted := List.filter (fun (s, _) -> s <> shop) !submitted;
        Admission.Drop { shop }
      end)

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)

type tally = {
  mutable admitted : int;
  mutable rejected : int;
  mutable undecided : int;
  mutable info : int;
  mutable dropped : int;
  mutable errors : int;
  mutable overloaded : int;
}

let tally_reply t = function
  | Admission.Decided { decision = Admission.Admitted _; _ } -> t.admitted <- t.admitted + 1
  | Admission.Decided { decision = Admission.Rejected _; _ } -> t.rejected <- t.rejected + 1
  | Admission.Decided { decision = Admission.Undecided _; _ } ->
      t.undecided <- t.undecided + 1
  | Admission.Queried _ -> t.info <- t.info + 1
  | Admission.Dropped _ -> t.dropped <- t.dropped + 1
  | Admission.Request_error _ -> t.errors <- t.errors + 1

(* In-process replay against the batcher; per-request latency = reply
   time - arrival time, both read from [Obs.Clock] so a deterministic
   source makes the whole measurement (and any trace) reproducible. *)
let run_inproc ~stream ~config =
  let batcher = Batcher.create ~config () in
  let n = List.length stream in
  let t_arrival = Array.make n 0. in
  let latency = Quantile.create () in
  let tally =
    { admitted = 0; rejected = 0; undecided = 0; info = 0; dropped = 0; errors = 0;
      overloaded = 0 }
  in
  let pending_idx = Queue.create () in
  let record_replies replies =
    List.iter
      (fun (_, tr, reply) ->
        (* The loadgen "renders" nothing, so finish right away — this
           closes the render stage and streams the trace records. *)
        Rtrace.finish tr;
        let i = Queue.pop pending_idx in
        Quantile.observe latency (Obs.Clock.now () -. t_arrival.(i));
        tally_reply tally reply)
      replies
  in
  let t0 = Obs.Clock.now () in
  List.iteri
    (fun i req ->
      t_arrival.(i) <- Obs.Clock.now ();
      (match Batcher.submit batcher req with
      | `Queued -> Queue.push i pending_idx
      | `Overloaded -> tally.overloaded <- tally.overloaded + 1);
      if Batcher.pending batcher >= config.Batcher.batch then
        record_replies (Batcher.step batcher))
    stream;
  let rec drain () =
    match Batcher.step batcher with [] -> () | replies -> record_replies replies; drain ()
  in
  drain ();
  let duration = Obs.Clock.now () -. t0 in
  ( duration,
    latency,
    tally,
    Batcher.cache_stats batcher,
    Some (Batcher.keyer_stats batcher) )

let new_tally () =
  { admitted = 0; rejected = 0; undecided = 0; info = 0; dropped = 0; errors = 0;
    overloaded = 0 }

let tally_line t line =
  match String.split_on_char ' ' line with
  | "admitted" :: _ -> t.admitted <- t.admitted + 1
  | "rejected" :: _ -> t.rejected <- t.rejected + 1
  | "undecided" :: _ -> t.undecided <- t.undecided + 1
  | "info" :: _ -> t.info <- t.info + 1
  | "dropped" :: _ -> t.dropped <- t.dropped + 1
  | "overloaded" :: _ -> t.overloaded <- t.overloaded + 1
  | _ -> t.errors <- t.errors + 1

(* One TCP client: closed-loop windowed pipelined replay of [stream],
   at most [pipeline] requests in flight.  Returns the latency sketch,
   the verdict tally and every line received, in order: the
   per-connection reply log the determinism smokes byte-compare. *)
let run_client ~port ~stream ~pipeline =
  let pipeline = max 1 pipeline in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let log = ref [] in
  let recv () =
    let line = input_line ic in
    log := line :: !log;
    line
  in
  ignore (recv ()) (* greeting *);
  let reqs = Array.of_list (List.map Protocol.render_request stream) in
  let n = Array.length reqs in
  let latency = Quantile.create () in
  let tally = new_tally () in
  let t_send = Array.make (max n 1) 0. in
  let sent = ref 0 and recvd = ref 0 in
  while !recvd < n do
    while !sent < n && !sent - !recvd < pipeline do
      t_send.(!sent) <- Unix.gettimeofday ();
      output_string oc reqs.(!sent);
      output_char oc '\n';
      incr sent
    done;
    flush oc;
    let line = recv () in
    Quantile.observe latency (Unix.gettimeofday () -. t_send.(!recvd));
    tally_line tally line;
    incr recvd
  done;
  output_string oc "quit\n";
  flush oc;
  (try ignore (recv ()) (* bye *) with End_of_file | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (latency, tally, List.rev !log)

(* Per-connection streams: [requests] split as evenly as possible over
   [connections].  A single connection replays the classic unprefixed
   stream; multiple connections get disjoint per-cid namespaces. *)
let client_streams ~connections ~seed ~requests =
  if connections <= 1 then [ gen_stream ~seed ~requests () ]
  else
    List.init connections (fun c ->
        let per = (requests / connections) + (if c < requests mod connections then 1 else 0) in
        gen_stream ~cid:c ~seed ~requests:per ())

let write_reply_logs reply_log results =
  match reply_log with
  | None -> ()
  | Some prefix ->
      List.iteri
        (fun i (_, _, log) ->
          Out_channel.with_open_text
            (Printf.sprintf "%s.conn%d" prefix i)
            (fun oc -> List.iter (fun line -> output_string oc (line ^ "\n")) log))
        results

let merge_client_results results =
  let latency =
    match results with
    | [] -> Quantile.create ()
    | (q, _, _) :: rest -> List.fold_left (fun acc (q, _, _) -> Quantile.merge acc q) q rest
  in
  let tally = new_tally () in
  List.iter
    (fun (_, (t : tally), _) ->
      tally.admitted <- tally.admitted + t.admitted;
      tally.rejected <- tally.rejected + t.rejected;
      tally.undecided <- tally.undecided + t.undecided;
      tally.info <- tally.info + t.info;
      tally.dropped <- tally.dropped + t.dropped;
      tally.errors <- tally.errors + t.errors;
      tally.overloaded <- tally.overloaded + t.overloaded)
    results;
  (latency, tally)

(* Every stream on its own client domain against the loopback [port]. *)
let run_clients ~port ~streams ~pipeline =
  let t0 = Unix.gettimeofday () in
  let domains =
    List.map
      (fun stream -> Domain.spawn (fun () -> run_client ~port ~stream ~pipeline))
      streams
  in
  let results = List.map Domain.join domains in
  let duration = Unix.gettimeofday () -. t0 in
  (duration, results)

(* Full-transport replay: an in-process concurrent TCP server on an
   ephemeral port, the clients over real sockets against it.  This is
   the configuration the saturation sweep measures. *)
let run_self ~streams ~config ~accept_pool ~window ~drainers ~pipeline ~reply_log =
  let stripes = E2e_serve.Stripes.create ~config ~stripes:drainers () in
  let nconn = List.length streams in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let port = ref None in
  let server =
    Domain.spawn (fun () ->
        Server.serve_tcp ~max_connections:nconn ~accept_pool ~window
          ~ready:(fun p ->
            Mutex.lock mu;
            port := Some p;
            Condition.signal cv;
            Mutex.unlock mu)
          ~port:0 stripes)
  in
  Mutex.lock mu;
  while !port = None do
    Condition.wait cv mu
  done;
  let port = Option.get !port in
  Mutex.unlock mu;
  let duration, results = run_clients ~port ~streams ~pipeline in
  Domain.join server;
  write_reply_logs reply_log results;
  let latency, tally = merge_client_results results in
  ( duration,
    latency,
    tally,
    E2e_serve.Stripes.cache_stats stripes,
    Some (E2e_serve.Stripes.keyer_stats stripes) )

(* Saturation sweep: one self-serve measurement per (connections,
   batch) point, recorded in BENCH_serve.json as the transport's
   throughput surface.  The drainer sweep reuses the same point shape
   with [sat_drainers] varying and a seed-then-resubmit workload. *)
type sat_point = {
  sat_connections : int;
  sat_batch : int;
  sat_drainers : int;
  sat_workload : string;  (* "mixed" | "seed-then-resubmit" *)
  sat_cache : int;  (* per-stripe solver-cache capacity *)
  sat_shops : int;  (* shops per connection (0: the mixed workload) *)
  sat_completed : int;
  sat_duration : float;
  sat_rps : float;
  sat_p50_ms : float;
  sat_p99_ms : float;
}

let sat_measure ~streams ~config ~window ~drainers ~pipeline ~workload ~shops =
  let connections = List.length streams in
  let accept_pool = min connections 8 in
  let duration, latency, _, _, _ =
    run_self ~streams ~config ~accept_pool ~window ~drainers ~pipeline ~reply_log:None
  in
  let completed = Quantile.count latency in
  {
    sat_connections = connections;
    sat_batch = config.Batcher.batch;
    sat_drainers = drainers;
    sat_workload = workload;
    sat_cache = config.Batcher.cache_capacity;
    sat_shops = shops;
    sat_completed = completed;
    sat_duration = duration;
    sat_rps = (if duration > 0. then float_of_int completed /. duration else 0.);
    sat_p50_ms = Quantile.quantile latency 0.50 *. 1000.;
    sat_p99_ms = Quantile.quantile latency 0.99 *. 1000.;
  }

let run_sat_sweep ~seed ~requests ~config ~pipeline ~window points =
  List.map
    (fun (connections, batch) ->
      let streams = client_streams ~connections ~seed ~requests in
      let config = { config with Batcher.batch } in
      sat_measure ~streams ~config ~window ~drainers:1 ~pipeline ~workload:"mixed"
        ~shops:0)
    points

(* ------------------------------------------------------------------ *)
(* Cluster modes: an in-process shard fleet behind an in-process
   dispatcher (--spawn-shards), shard-count scaling sweeps
   (--cluster-sweep, the source of BENCH_cluster.json), and the
   kill-one-shard failover check `make cluster-smoke` runs
   (--failover-check). *)

module Dispatcher = E2e_cluster.Dispatcher
module Registry = E2e_cluster.Registry

(* A one-shot mailbox for the ready-port handshake with a spawned
   server domain. *)
let wait_slot () =
  let mu = Mutex.create () and cv = Condition.create () in
  let slot = ref None in
  let set p =
    Mutex.lock mu;
    slot := Some p;
    Condition.signal cv;
    Mutex.unlock mu
  in
  let get () =
    Mutex.lock mu;
    while !slot = None do
      Condition.wait cv mu
    done;
    let p = Option.get !slot in
    Mutex.unlock mu;
    p
  in
  (set, get)

type shard = {
  sh_port : int;
  sh_control : Wire.control;
  sh_domain : unit Domain.t;
}

(* One in-process shard: its own batcher (own admission state, own
   solver cache) behind a real TCP listener on an ephemeral port, with
   a control handle so a test can kill it like a process.  Schedules
   are off — cluster runs measure the service, not reply rendering. *)
let spawn_shard ~config ~accept_pool ~window ?(port = 0) () =
  let control = Wire.control () in
  let set, get = wait_slot () in
  let stripes = E2e_serve.Stripes.create ~config () in
  let domain =
    Domain.spawn (fun () ->
        Server.serve_tcp ~schedules:false ~accept_pool ~window ~ready:set ~control ~port
          stripes)
  in
  { sh_port = get (); sh_control = control; sh_domain = domain }

type cluster = {
  cl_shards : shard list;
  cl_t : Dispatcher.t;
  cl_domain : unit Domain.t;
  cl_port : int;
}

let spawn_cluster ~nshards ~config ~window ~probe_interval ~client_slots
    ?(upstream_conns = 1) () =
  (* A shard accept domain owns its connection for the connection's
     lifetime, and every dispatcher lane is a persistent connection: the
     pool must fit all lanes plus a probe and a metrics RPC at once, or
     the overflow lane (and the status checker) starve in the backlog. *)
  let shards =
    List.init nshards (fun _ ->
        spawn_shard ~config ~accept_pool:(max 3 (upstream_conns + 2)) ~window ())
  in
  let dconfig = { Dispatcher.default_config with probe_interval; upstream_conns } in
  let t =
    Dispatcher.create ~config:dconfig
      (List.map (fun s -> ("127.0.0.1", s.sh_port)) shards)
  in
  let set, get = wait_slot () in
  let ddomain =
    Domain.spawn (fun () ->
        Dispatcher.serve ~accept_pool:client_slots ~window ~ready:set ~port:0 t)
  in
  { cl_shards = shards; cl_t = t; cl_domain = ddomain; cl_port = get () }

let stop_cluster c =
  Dispatcher.shutdown c.cl_t;
  Domain.join c.cl_domain;
  List.iter (fun s -> Wire.shutdown s.sh_control) c.cl_shards;
  List.iter (fun s -> Domain.join s.sh_domain) c.cl_shards

(* What the cluster run reports beyond throughput: routing balance and
   failover counters, from the in-process dispatcher handle. *)
type cluster_info = {
  ci_shards : int;
  ci_live : int;
  ci_routed : int;
  ci_failovers : int;
  ci_unavailable : int;
  ci_balance : (string * int) list;  (* shard id -> requests routed *)
}

let cluster_info_of_stats (st : Dispatcher.stats) =
  {
    ci_shards = st.registry_stats.Registry.shards;
    ci_live = st.registry_stats.Registry.live_shards;
    ci_routed = st.routed;
    ci_failovers = st.registry_stats.Registry.failovers;
    ci_unavailable = st.unavailable;
    ci_balance =
      List.map (fun s -> (s.Dispatcher.shard_id, s.Dispatcher.shard_routed)) st.per_shard;
  }

let print_cluster_info ci =
  Format.printf "cluster       shards=%d live=%d routed=%d failovers=%d unavailable=%d@."
    ci.ci_shards ci.ci_live ci.ci_routed ci.ci_failovers ci.ci_unavailable;
  List.iter
    (fun (id, n) -> Format.printf "shard         %-22s routed=%d@." id n)
    ci.ci_balance

let cluster_json ci =
  Json.Obj
    [
      ("shards", Json.int ci.ci_shards);
      ("live", Json.int ci.ci_live);
      ("routed", Json.int ci.ci_routed);
      ("failovers", Json.int ci.ci_failovers);
      ("unavailable", Json.int ci.ci_unavailable);
      ("balance", Json.Obj (List.map (fun (id, n) -> (id, Json.int n)) ci.ci_balance));
    ]

(* The scaling-sweep workload: [shops] seeding submits establish this
   connection's shops, then the stream resubmits random shops with
   freshly permuted instances (same canonical form, disjoint
   per-connection namespaces).  A permuted resubmission is answered
   from the shard's canonical solver cache when the shop's entry is
   resident and pays a full solve when it was evicted — so the scaling
   lever is aggregate cache capacity: routing is sticky, each shard's
   LRU holds exactly its own shops, and a working set a few times one
   shard's [--cache] thrashes a single shard while enough shards hold
   it entirely.  That is the honest sharding win available on any core
   count; CPU fan-out is not (the bench host may be a single core).
   Instances are a little bigger than gen_stream's so the solve :
   cache-hit cost ratio is what the bench exercises. *)
let gen_cluster_instance g =
  let n = 12 + Prng.int g 5 and m = 3 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.05 +. Prng.float g 0.3 })

let gen_cluster_stream ~cid ~seed ~shops ~requests () =
  let g = Prng.of_path [| seed; 0xc1; cid |] in
  let shop k = Printf.sprintf "c%d-s%d" cid k in
  let shops = max 1 (min shops requests) in
  let instances = Array.init shops (fun _ -> gen_cluster_instance g) in
  (* Resubmission is a drop + submit pair (a committed shop rejects a
     second bare submit); the fresh submit is the cache probe. *)
  let rec steady n =
    if n <= 0 then []
    else
      let k = Prng.int g shops in
      Admission.Drop { shop = shop k }
      :: Admission.Submit { shop = shop k; instance = permute g instances.(k) }
      :: steady (n - 2)
  in
  List.init shops (fun k -> Admission.Submit { shop = shop k; instance = instances.(k) })
  @ steady (requests - shops)

(* Drainer-stripe sweep: the single-process analogue of the shard
   sweep.  Same seed-then-resubmit workload, one embedded server per
   stripe count: queue and solver cache are per stripe, so [d] stripes
   hold d x cache_capacity canonical entries in aggregate — a working
   set a few times one stripe's cache thrashes at --drainers 1 and
   goes cache-resident at 4.  (On a multi-core host the per-stripe
   drainer domains also overlap solves; the aggregate-cache effect is
   the one that survives a single-core box.) *)
let run_drainer_sweep ~counts ~config ~connections ~pipeline ~shops ~requests ~seed
    ~window =
  let streams =
    List.init connections (fun c ->
        let per =
          (requests / connections) + (if c < requests mod connections then 1 else 0)
        in
        gen_cluster_stream ~cid:c ~seed ~shops ~requests:per ())
  in
  let points =
    List.map
      (fun drainers ->
        let p =
          sat_measure ~streams ~config ~window ~drainers ~pipeline
            ~workload:"seed-then-resubmit" ~shops
        in
        Format.printf
          "drainers=%-2d %7.0f req/s  p50=%.3fms p99=%.3fms (%d in %.3fs)@." drainers
          p.sat_rps p.sat_p50_ms p.sat_p99_ms p.sat_completed p.sat_duration;
        p)
      counts
  in
  let rps_of n =
    List.find_map (fun p -> if p.sat_drainers = n then Some p.sat_rps else None) points
  in
  (match
     (rps_of (List.fold_left min max_int counts), rps_of (List.fold_left max 0 counts))
   with
  | Some b, Some t when b > 0. ->
      Format.printf "drainer scaling %d -> %d stripes: %.2fx@."
        (List.fold_left min max_int counts)
        (List.fold_left max 0 counts)
        (t /. b)
  | _ -> ());
  points

type cluster_point = {
  cp_shards : int;
  cp_completed : int;
  cp_duration : float;
  cp_rps : float;
  cp_p50_ms : float;
  cp_p99_ms : float;
  cp_info : cluster_info;
}

let run_cluster_point ~nshards ~config ~connections ~pipeline ~shops ~requests ~seed
    ~window ?(upstream_conns = 1) () =
  let cluster =
    spawn_cluster ~nshards ~config ~window ~probe_interval:0.5
      ~client_slots:(connections + 2) ~upstream_conns ()
  in
  let streams =
    List.init connections (fun c ->
        let per =
          (requests / connections) + (if c < requests mod connections then 1 else 0)
        in
        gen_cluster_stream ~cid:c ~seed ~shops ~requests:per ())
  in
  let duration, results = run_clients ~port:cluster.cl_port ~streams ~pipeline in
  let latency, _tally = merge_client_results results in
  let info = cluster_info_of_stats (Dispatcher.stats cluster.cl_t) in
  stop_cluster cluster;
  let completed = Quantile.count latency in
  {
    cp_shards = nshards;
    cp_completed = completed;
    cp_duration = duration;
    cp_rps = (if duration > 0. then float_of_int completed /. duration else 0.);
    cp_p50_ms = Quantile.quantile latency 0.50 *. 1000.;
    cp_p99_ms = Quantile.quantile latency 0.99 *. 1000.;
    cp_info = info;
  }

(* Upstream-lane sweep: one shard, a cache-resident (hit-heavy)
   workload so the shard answers fast, and a fresh cluster per lane
   count — what widening the dispatcher->shard pipe is worth when the
   shard itself is not the bottleneck.  Recorded honestly: on a host
   where one upstream connection already saturates the path, the curve
   is flat. *)
let run_upstream_sweep ~counts ~config ~connections ~pipeline ~requests ~seed ~window =
  (* Shops per connection sized to keep the whole working set resident
     in the single shard's cache: every resubmission is a cache hit. *)
  let shops =
    max 1 (config.Batcher.cache_capacity / (2 * max 1 connections))
  in
  let points =
    List.map
      (fun upstream_conns ->
        let p =
          run_cluster_point ~nshards:1 ~config ~connections ~pipeline ~shops ~requests
            ~seed ~window ~upstream_conns ()
        in
        Format.printf
          "upstream conns=%-2d %7.0f req/s  p50=%.3fms p99=%.3fms (%d in %.3fs)@."
          upstream_conns p.cp_rps p.cp_p50_ms p.cp_p99_ms p.cp_completed p.cp_duration;
        (upstream_conns, p))
      counts
  in
  (points, shops)

let run_cluster_sweep ~counts ~upstream ~config ~connections ~pipeline ~shops ~requests
    ~seed ~window ~jobs ~out =
  let points =
    List.map
      (fun nshards ->
        let p =
          run_cluster_point ~nshards ~config ~connections ~pipeline ~shops ~requests ~seed
            ~window ()
        in
        Format.printf
          "cluster shards=%-2d %7.0f req/s  p50=%.3fms p99=%.3fms (%d in %.3fs, \
           failovers=%d unavailable=%d)@."
          p.cp_shards p.cp_rps p.cp_p50_ms p.cp_p99_ms p.cp_completed p.cp_duration
          p.cp_info.ci_failovers p.cp_info.ci_unavailable;
        p)
      counts
  in
  let upstream_points, upstream_shops =
    match upstream with
    | [] -> ([], 0)
    | counts -> run_upstream_sweep ~counts ~config ~connections ~pipeline ~requests ~seed ~window
  in
  let rps_of n =
    List.find_map (fun p -> if p.cp_shards = n then Some p.cp_rps else None) points
  in
  let base = rps_of (List.fold_left min max_int counts) in
  let top = rps_of (List.fold_left max 0 counts) in
  let ratio =
    match (base, top) with
    | Some b, Some t when b > 0. -> Some (t /. b)
    | _ -> None
  in
  (match ratio with
  | Some r ->
      Format.printf "cluster scaling %d -> %d shards: %.2fx@."
        (List.fold_left min max_int counts)
        (List.fold_left max 0 counts)
        r
  | None -> ());
  match out with
  | None -> ()
  | Some path ->
      let record =
        Json.Obj
          [
            ( "workload",
              Json.Obj
                [
                  ("type", Json.Str "seed-then-resubmit");
                  ("requests", Json.int requests);
                  ("connections", Json.int connections);
                  ("pipeline", Json.int pipeline);
                  ("shops_per_connection", Json.int shops);
                  ("seed", Json.int seed);
                  ("cache_capacity", Json.int config.Batcher.cache_capacity);
                  ("batch", Json.int config.Batcher.batch);
                  ("jobs", Json.int jobs);
                ] );
            ( "points",
              Json.List
                (List.map
                   (fun p ->
                     Json.Obj
                       [
                         ("shards", Json.int p.cp_shards);
                         ("completed", Json.int p.cp_completed);
                         ("duration_s", Json.Num p.cp_duration);
                         ("requests_per_sec", Json.Num p.cp_rps);
                         ("latency_p50_ms", Json.Num p.cp_p50_ms);
                         ("latency_p99_ms", Json.Num p.cp_p99_ms);
                         ("failovers", Json.int p.cp_info.ci_failovers);
                         ("unavailable", Json.int p.cp_info.ci_unavailable);
                         ( "balance",
                           Json.Obj
                             (List.map
                                (fun (id, n) -> (id, Json.int n))
                                p.cp_info.ci_balance) );
                       ])
                   points) );
            ( "scaling",
              match ratio with
              | None -> Json.Null
              | Some r ->
                  Json.Obj
                    [
                      ("shards_min", Json.int (List.fold_left min max_int counts));
                      ("shards_max", Json.int (List.fold_left max 0 counts));
                      ("rps_ratio", Json.Num r);
                    ] );
            ( "upstream_sweep",
              Json.List
                (List.map
                   (fun (k, p) ->
                     Json.Obj
                       [
                         ("upstream_conns", Json.int k);
                         ("shards", Json.int p.cp_shards);
                         ("connections", Json.int connections);
                         ("shops_per_connection", Json.int upstream_shops);
                         ("completed", Json.int p.cp_completed);
                         ("duration_s", Json.Num p.cp_duration);
                         ("requests_per_sec", Json.Num p.cp_rps);
                         ("latency_p50_ms", Json.Num p.cp_p50_ms);
                         ("latency_p99_ms", Json.Num p.cp_p99_ms);
                       ])
                   upstream_points) );
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string record);
          output_char oc '\n');
      Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Failover check: 2 shards + dispatcher, kill one mid-burst, assert
   every in-flight request still gets a reply (the deterministic
   [error shard-unavailable], never a hang), traffic recovers on the
   surviving shard, and a shard returning on the same address is
   re-admitted and routed to again.                                   *)

let failover_check ~config ~window ~seed ~upstream_conns =
  let cluster =
    spawn_cluster ~nshards:2 ~config ~window ~probe_interval:0.2 ~client_slots:3
      ~upstream_conns ()
  in
  let fail_reasons = ref [] in
  let extra_shard = ref None in
  let fail fmt = Printf.ksprintf (fun s -> fail_reasons := s :: !fail_reasons) fmt in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cluster.cl_port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (* A reply that takes >10s is a hang — the exact bug this check
     exists to catch — so bound every read. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0 with Unix.Unix_error _ -> ());
  let r = Wire.make_reader fd in
  let g = Prng.create seed in
  let fresh = ref 0 in
  let submit_line () =
    incr fresh;
    Protocol.render_request
      (Admission.Submit { shop = Printf.sprintf "f%d" !fresh; instance = gen_instance g })
  in
  let send lines = Wire.write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) in
  let read_replies k =
    List.init k (fun _ ->
        match Wire.read_line r with
        | `Line l -> l
        | `Eof | `Too_long | `Error _ -> "error: connection lost or timed out")
  in
  let unavailable replies =
    List.length (List.filter (fun l -> l = Dispatcher.unavailable_reply) replies)
  in
  let lost replies =
    List.length (List.filter (fun l -> l = "error: connection lost or timed out") replies)
  in
  (match Wire.read_line r with
  | `Line _ -> () (* greeting *)
  | `Eof | `Too_long | `Error _ -> fail "no greeting from dispatcher");
  (* Phase 1: both shards up — a burst of submits, none unavailable. *)
  let burst1 = List.init 16 (fun _ -> submit_line ()) in
  send burst1;
  let replies1 = read_replies 16 in
  if lost replies1 > 0 then fail "phase1: lost %d replies" (lost replies1);
  if unavailable replies1 > 0 then
    fail "phase1: %d shard-unavailable with all shards live" (unavailable replies1);
  (* Phase 2: kill shard 0 with a burst in flight, then keep sending.
     Every request must be answered; the ones caught on the dead shard
     get the deterministic unavailable error.  "In flight" must be
     OBSERVED, not assumed: on one core the scheduler can run the
     whole dispatch-solve-reply chain inside any sleep, after which
     the kill strands nothing, the ring fails over cleanly and the
     check has witnessed no drain.  So arm the kill on the
     dispatcher's own queue-depth stat — a non-zero [shard_pending]
     for the doomed shard is proof it owes replies right now — and if
     a burst was fully answered before the poll saw it, drain the
     replies and try a fresh burst. *)
  let doomed = List.hd cluster.cl_shards in
  let doomed_id = Registry.id_of ~host:"127.0.0.1" ~port:doomed.sh_port in
  let pending_on_doomed () =
    List.fold_left
      (fun acc s ->
        if s.Dispatcher.shard_id = doomed_id then s.Dispatcher.shard_pending else acc)
      0
      (Dispatcher.stats cluster.cl_t).Dispatcher.per_shard
  in
  (* Queue-depth alone is not enough to arm on: [shard_pending] also
     counts requests whose replies already sit unread in the
     dispatcher's kernel buffer, and those are delivered ahead of the
     EOF — the kill would strand nothing.  The airtight witness is
     WORK the shard has not finished computing when the kill lands: a
     burst of 40 medium submits, every one pinned to the doomed shard
     (shop names are burned until the ring homes them there), is tens
     of milliseconds of solving spread over several batches — the
     kill below arrives within a poll tick of the first request being
     routed, so later batches have no reply bytes anywhere and their
     lane drains them as [error shard-unavailable].  Medium instances
     keep each batch bounded to milliseconds: the killed drainer
     finishes at most its current batch, so joining the dead shard's
     domain stays fast (one huge instance instead would pin the join
     on an unbounded solve). *)
  let doomed_submit () =
    let rec pick () =
      incr fresh;
      let shop = Printf.sprintf "f%d" !fresh in
      match Registry.home (Dispatcher.registry cluster.cl_t) shop with
      | Some e when e.Registry.id = doomed_id -> shop
      | _ -> pick ()
    in
    let shop = pick () in
    Protocol.render_request
      (Admission.Submit
         {
           shop;
           instance =
             Recurrence_shop.of_traditional
               (Feasible_gen.generate g
                  { Feasible_gen.n_tasks = 60; n_processors = 3; mean_tau = 1.0;
                    stdev = 0.3; slack_factor = 2.0 });
         })
  in
  let burst = List.init 40 (fun _ -> doomed_submit ()) in
  send burst;
  (* Kill as soon as a good chunk of the burst is visibly pending on
     the doomed shard.  The depth jumps to ~40 when the burst routes
     and drains at batch pace, so it sits above the threshold for
     hundreds of milliseconds — and a depth of 8 leaves plenty of
     genuinely unsolved requests even if a few replies are already in
     flight when the kill lands. *)
  let arm_deadline = Unix.gettimeofday () +. 5.0 in
  while pending_on_doomed () < 8 && Unix.gettimeofday () < arm_deadline do
    Unix.sleepf 0.0002
  done;
  if pending_on_doomed () < 8 then
    fail "phase2: burst never seen pending on the doomed shard";
  Wire.shutdown doomed.sh_control;
  let post_kill = List.init 24 (fun _ -> submit_line ()) in
  send post_kill;
  let replies2 = read_replies (40 + 24) in
  let unavailable2 = unavailable replies2 in
  if lost replies2 > 0 then
    fail "phase2: %d requests never answered after shard kill (hang)" (lost replies2);
  if unavailable2 = 0 then
    fail "phase2: expected at least one shard-unavailable reply after killing a shard";
  (* Phase 3: recovery — fresh shops must admit cleanly on the
     survivor within a bounded number of rounds. *)
  let recovery_rounds = ref (-1) in
  (let round = ref 0 in
   while !recovery_rounds < 0 && !round < 50 do
     incr round;
     let burst = List.init 4 (fun _ -> submit_line ()) in
     send burst;
     let replies = read_replies 4 in
     if lost replies > 0 then begin
       fail "phase3: lost replies during recovery";
       recovery_rounds := !round
     end
     else if unavailable replies = 0 then recovery_rounds := !round
     else Unix.sleepf 0.05
   done;
   if !recovery_rounds < 0 then fail "phase3: no clean round within 50 rounds");
  (* Phase 4: re-admission — restart a shard on the same address, wait
     for the status checker to revive it, and check new shops route to
     it again. *)
  let dead_port = (List.hd cluster.cl_shards).sh_port in
  let dead_id = Registry.id_of ~host:"127.0.0.1" ~port:dead_port in
  Domain.join (List.hd cluster.cl_shards).sh_domain;
  let reborn = spawn_shard ~config ~accept_pool:3 ~window ~port:dead_port () in
  extra_shard := Some reborn;
  let deadline = Unix.gettimeofday () +. 15.0 in
  let live () =
    List.exists
      (fun (id, state, _) -> id = dead_id && state = Registry.Live)
      (Registry.snapshot (Dispatcher.registry cluster.cl_t))
  in
  while (not (live ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if not (live ()) then fail "phase4: killed shard not revived within 15s of restarting"
  else begin
    let routed_to id =
      let st = Dispatcher.stats cluster.cl_t in
      List.fold_left
        (fun acc s -> if s.Dispatcher.shard_id = id then s.Dispatcher.shard_routed else acc)
        0 st.per_shard
    in
    let before = routed_to dead_id in
    let burst = List.init 24 (fun _ -> submit_line ()) in
    send burst;
    let replies = read_replies 24 in
    if lost replies > 0 then fail "phase4: lost replies after revival";
    if unavailable replies > 0 then
      fail "phase4: %d shard-unavailable after revival" (unavailable replies);
    if routed_to dead_id <= before then
      fail "phase4: no traffic routed to the revived shard"
  end;
  (try Wire.write_all fd "quit\n" with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (match !extra_shard with
  | Some s ->
      Wire.shutdown s.sh_control;
      Domain.join s.sh_domain
  | None -> ());
  (* The killed shard's domain is already joined; stop_cluster joins
     the rest and shuts the dispatcher down. *)
  Dispatcher.shutdown cluster.cl_t;
  Domain.join cluster.cl_domain;
  List.iter
    (fun s -> Wire.shutdown s.sh_control)
    (List.tl cluster.cl_shards);
  List.iter (fun s -> Domain.join s.sh_domain) (List.tl cluster.cl_shards);
  match List.rev !fail_reasons with
  | [] ->
      Format.printf
        "failover-check: ok (unavailable=%d recovery_rounds=%d re-admitted=%s)@."
        unavailable2 !recovery_rounds dead_id;
      true
  | reasons ->
      List.iter (fun r -> Format.printf "failover-check: FAIL %s@." r) reasons;
      false

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)

let report ?(extra = []) ~out ~requests ~jobs ~config ~transport ~connections ~duration
    ~latency ~tally ~cache_stats ~keyer_stats ~stages ~sweep ~sat () =
  let ms x = x *. 1000. in
  let p q = ms (Quantile.quantile latency q) in
  let completed = Quantile.count latency in
  let rps = if duration > 0. then float_of_int completed /. duration else 0. in
  let hit_rate hits misses =
    let total = hits + misses in
    if total = 0 then 0. else float_of_int hits /. float_of_int total
  in
  Format.printf "requests      %d (%d completed, %d overloaded)@." requests completed
    tally.overloaded;
  Format.printf "duration      %.3fs  (%.0f requests/s)@." duration rps;
  Format.printf "latency (ms)  p50=%.3f p95=%.3f p99=%.3f max=%.3f@." (p 0.50) (p 0.95)
    (p 0.99)
    (ms (Quantile.max_value latency));
  List.iter
    (fun (stage, q) ->
      Format.printf "stage %-13s p50=%.3f p95=%.3f p99=%.3f max=%.3f@."
        (stage ^ " (ms)")
        (ms (Quantile.quantile q 0.50))
        (ms (Quantile.quantile q 0.95))
        (ms (Quantile.quantile q 0.99))
        (ms (Quantile.max_value q)))
    stages;
  Format.printf "verdicts      admitted=%d rejected=%d undecided=%d info=%d dropped=%d \
                 errors=%d@."
    tally.admitted tally.rejected tally.undecided tally.info tally.dropped tally.errors;
  (match cache_stats with
  | None -> Format.printf "cache         off or remote@."
  | Some { Cache.hits; misses; evictions; size } ->
      Format.printf "cache         hits=%d misses=%d evictions=%d size=%d hit_rate=%.3f@."
        hits misses evictions size (hit_rate hits misses));
  (match keyer_stats with
  | None -> ()
  | Some { Cache.Keyer.reused; rendered } ->
      Format.printf "keyer         reused=%d rendered=%d@." reused rendered);
  List.iter
    (fun (capacity, { Cache.hits; misses; evictions; _ }) ->
      Format.printf "sweep cap=%-6d hits=%d misses=%d evictions=%d hit_rate=%.3f@." capacity
        hits misses evictions (hit_rate hits misses))
    sweep;
  List.iter
    (fun s ->
      Format.printf
        "sat   conns=%-3d batch=%-4d drainers=%-2d %6.0f req/s  p50=%.3fms p99=%.3fms \
         (%d in %.3fs)@."
        s.sat_connections s.sat_batch s.sat_drainers s.sat_rps s.sat_p50_ms s.sat_p99_ms
        s.sat_completed s.sat_duration)
    sat;
  match out with
  | None -> ()
  | Some path ->
      let cache_json =
        match cache_stats with
        | None -> Json.Null
        | Some { Cache.hits; misses; evictions; size } ->
            Json.Obj
              [
                ("hits", Json.Num (float_of_int hits));
                ("misses", Json.Num (float_of_int misses));
                ("evictions", Json.Num (float_of_int evictions));
                ("size", Json.Num (float_of_int size));
                ("hit_rate", Json.Num (hit_rate hits misses));
              ]
      in
      let record =
        Json.Obj
          ([
            ("requests", Json.Num (float_of_int requests));
            ("completed", Json.Num (float_of_int completed));
            ("overloaded", Json.Num (float_of_int tally.overloaded));
            ("duration_s", Json.Num duration);
            ("requests_per_sec", Json.Num rps);
            ( "latency_ms",
              Json.Obj
                [
                  ("p50", Json.Num (p 0.50));
                  ("p95", Json.Num (p 0.95));
                  ("p99", Json.Num (p 0.99));
                  ("max", Json.Num (ms (Quantile.max_value latency)));
                ] );
            ( "stage_latency_ms",
              Json.Obj
                (List.map
                   (fun (stage, q) ->
                     ( stage,
                       Json.Obj
                         [
                           ("p50", Json.Num (ms (Quantile.quantile q 0.50)));
                           ("p95", Json.Num (ms (Quantile.quantile q 0.95)));
                           ("p99", Json.Num (ms (Quantile.quantile q 0.99)));
                           ("max", Json.Num (ms (Quantile.max_value q)));
                           ("count", Json.int (Quantile.count q));
                         ] ))
                   stages) );
            ( "verdicts",
              Json.Obj
                [
                  ("admitted", Json.Num (float_of_int tally.admitted));
                  ("rejected", Json.Num (float_of_int tally.rejected));
                  ("undecided", Json.Num (float_of_int tally.undecided));
                  ("info", Json.Num (float_of_int tally.info));
                  ("dropped", Json.Num (float_of_int tally.dropped));
                  ("errors", Json.Num (float_of_int tally.errors));
                ] );
            ("cache", cache_json);
            ( "keyer",
              match keyer_stats with
              | None -> Json.Null
              | Some { Cache.Keyer.reused; rendered } ->
                  Json.Obj
                    [
                      ("reused", Json.Num (float_of_int reused));
                      ("rendered", Json.Num (float_of_int rendered));
                    ] );
            ( "cache_sweep",
              Json.List
                (List.map
                   (fun (capacity, { Cache.hits; misses; evictions; _ }) ->
                     Json.Obj
                       [
                         ("capacity", Json.Num (float_of_int capacity));
                         ("hits", Json.Num (float_of_int hits));
                         ("misses", Json.Num (float_of_int misses));
                         ("evictions", Json.Num (float_of_int evictions));
                         ("hit_rate", Json.Num (hit_rate hits misses));
                       ])
                   sweep) );
            ( "saturation_sweep",
              Json.List
                (List.map
                   (fun s ->
                     Json.Obj
                       [
                         ("connections", Json.Num (float_of_int s.sat_connections));
                         ("batch", Json.Num (float_of_int s.sat_batch));
                         ("drainers", Json.int s.sat_drainers);
                         ("workload", Json.Str s.sat_workload);
                         ("cache_capacity", Json.int s.sat_cache);
                         ("shops_per_connection", Json.int s.sat_shops);
                         ("completed", Json.Num (float_of_int s.sat_completed));
                         ("duration_s", Json.Num s.sat_duration);
                         ("requests_per_sec", Json.Num s.sat_rps);
                         ("latency_p50_ms", Json.Num s.sat_p50_ms);
                         ("latency_p99_ms", Json.Num s.sat_p99_ms);
                       ])
                   sat) );
            ( "config",
              Json.Obj
                [
                  ("transport", Json.Str transport);
                  ("connections", Json.Num (float_of_int connections));
                  ("jobs", Json.Num (float_of_int jobs));
                  ("batch", Json.Num (float_of_int config.Batcher.batch));
                  ("queue", Json.Num (float_of_int config.Batcher.queue_capacity));
                  ("cache_capacity", Json.Num (float_of_int config.Batcher.cache_capacity));
                ] );
          ]
          @ extra)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string record);
          output_char oc '\n');
      Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)

let requests_arg =
  let doc = "Number of requests in the stream." in
  Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Stream seed: the request sequence is a pure function of it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc = "Worker domains for the in-process engine's batch solves." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let batch_arg =
  let doc = "Batch size of the in-process engine." in
  Arg.(value & opt int Batcher.default_config.Batcher.batch & info [ "batch" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Queue bound of the in-process engine." in
  Arg.(value & opt int Batcher.default_config.Batcher.queue_capacity
       & info [ "queue" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Solver-cache capacity of the in-process engine (0 = off)." in
  Arg.(value & opt int Batcher.default_config.Batcher.cache_capacity
       & info [ "cache"; "cache-capacity" ] ~docv:"N" ~doc)

let sweep_arg =
  let doc =
    "Replay the same stream once per capacity in the comma-separated list and record each \
     run's cache statistics alongside the main run (in-process only)."
  in
  Arg.(value & opt (some (list int)) None & info [ "cache-sweep" ] ~docv:"N,N,..." ~doc)

let self_serve_arg =
  let doc =
    "Start the concurrent TCP server in-process on an ephemeral port and replay against it \
     over real sockets: the whole-transport measurement (engine config flags apply to the \
     embedded server)."
  in
  Arg.(value & flag & info [ "self-serve" ] ~doc)

let connections_arg =
  let doc =
    "Parallel client connections for the TCP modes; each replays an independent stream on a \
     disjoint shop namespace (a single connection replays the classic stream)."
  in
  Arg.(value & opt int 1 & info [ "connections" ] ~docv:"C" ~doc)

let pipeline_arg =
  let doc = "Requests each client keeps in flight (the closed-loop pipelining window)." in
  Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"W" ~doc)

let accept_pool_arg =
  let doc = "Reader domains of the embedded --self-serve server." in
  Arg.(value & opt int 4 & info [ "accept-pool" ] ~docv:"N" ~doc)

let window_arg =
  let doc = "Per-connection reply window of the embedded --self-serve server." in
  Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc)

let drainers_arg =
  let doc =
    "Drainer stripes of the embedded --self-serve server (the queue is sharded by shop; \
     one drainer domain per stripe).  Per-connection reply logs are byte-identical at \
     every value."
  in
  Arg.(value & opt int 1 & info [ "drainers" ] ~docv:"N" ~doc)

let drainer_sweep_arg =
  let doc =
    "Drainer-stripe scaling sweep: one embedded-server run of the seed-then-resubmit \
     workload (--cluster-shops shops per connection, --cache per-stripe capacity) per \
     stripe count in the comma-separated list, recorded alongside saturation_sweep in the \
     JSON report."
  in
  Arg.(value & opt (some (list int)) None & info [ "drainer-sweep" ] ~docv:"D,D,..." ~doc)

let upstream_sweep_arg =
  let doc =
    "Upstream-lane scaling sweep (cluster bench): a fresh 1-shard cluster per lane count \
     in the comma-separated list on a cache-resident workload, recorded as upstream_sweep \
     in the cluster JSON report.  Combine with --cluster-sweep to write both curves."
  in
  Arg.(value & opt (some (list int)) None & info [ "upstream-sweep" ] ~docv:"K,K,..." ~doc)

let upstream_conns_arg =
  let doc = "Pipelined upstream connections per shard of the in-process dispatcher modes." in
  Arg.(value & opt int 1 & info [ "upstream-conns" ] ~docv:"K" ~doc)

let reply_log_arg =
  let doc =
    "Write each connection's received lines to $(docv).conn<k> (TCP modes) — the \
     per-connection determinism artifacts `make check` byte-compares across -j values."
  in
  Arg.(value & opt (some string) None & info [ "reply-log" ] ~docv:"PREFIX" ~doc)

let sat_conns_arg =
  let doc =
    "Saturation sweep: measure --self-serve throughput at each connection count in the \
     comma-separated list (crossed with --sat-batch), recorded as saturation_sweep in the \
     JSON report."
  in
  Arg.(value & opt (some (list int)) None & info [ "sat-connections" ] ~docv:"C,C,..." ~doc)

let sat_batch_arg =
  let doc = "Batch sizes the saturation sweep crosses with --sat-connections." in
  Arg.(value & opt (some (list int)) None & info [ "sat-batch" ] ~docv:"B,B,..." ~doc)

let out_arg =
  let doc = "Write the run summary as one JSON object to $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Write one JSONL request-trace record per pipeline stage per request to $(docv) \
     (analyse with e2e-trace; in-process replay only)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let det_clock_arg =
  let doc =
    "Replace the wall clock with a deterministic counter (one tick of 1/1024 s per \
     reading): timings stop measuring real time but the trace, the latency report and the \
     stage percentiles become exact functions of the request stream — byte-identical at \
     every -j."
  in
  Arg.(value & flag & info [ "det-clock" ] ~doc)

let spawn_shards_arg =
  let doc =
    "Start $(docv) in-process shards (each a full TCP e2e-serve) behind an in-process \
     dispatcher on ephemeral ports and replay against the dispatcher: the whole-cluster \
     measurement (engine config flags apply to every shard)."
  in
  Arg.(value & opt (some int) None & info [ "spawn-shards" ] ~docv:"N" ~doc)

let cluster_sweep_arg =
  let doc =
    "Shard-count scaling sweep: spin up a fresh cluster per count in the comma-separated \
     list, replay the seed-then-query workload, and record throughput, balance and \
     failover counters per point (`make bench-cluster` writes BENCH_cluster.json this \
     way)."
  in
  Arg.(value & opt (some (list int)) None & info [ "cluster-sweep" ] ~docv:"N,N,..." ~doc)

let cluster_shops_arg =
  let doc = "Shops each connection submits before the query phase of the cluster sweep." in
  Arg.(value & opt int 8 & info [ "cluster-shops" ] ~docv:"K" ~doc)

let failover_arg =
  let doc =
    "Run the cluster failover check: 2 in-process shards behind a dispatcher, kill one \
     mid-burst, assert every request is answered (deterministic shard-unavailable errors, \
     no hangs), traffic recovers on the survivor, and a restarted shard is re-admitted.  \
     Exits non-zero on failure."
  in
  Arg.(value & flag & info [ "failover-check" ] ~doc)

(* Stage sketches accumulated by Rtrace.finish during the main run, in
   pipeline order, with the end-to-end sketch last.  Captured before the
   sweep replays so their observations don't pollute the report. *)
let capture_stages () =
  let sk = Obs.sketches () in
  let find name = List.assoc_opt name sk in
  List.filter_map
    (fun stage -> Option.map (fun q -> (stage, q)) (find ("serve.stage." ^ stage)))
    (Array.to_list Rtrace.stages)
  @ (match find "serve.e2e" with Some q -> [ ("e2e", q) ] | None -> [])

let run requests seed jobs batch queue cache sweep self_serve connections pipeline
    accept_pool window drainers drainer_sweep upstream_sweep upstream_conns reply_log
    sat_conns sat_batch out trace det_clock spawn_shards cluster_sweep cluster_shops failover =
  let jobs = Pool.resolve_jobs jobs in
  let config =
    { Batcher.queue_capacity = queue; batch; budget = Admission.Unbounded; jobs;
      cache_capacity = cache }
  in
  let tcp_mode = self_serve || spawn_shards <> None in
  if self_serve && spawn_shards <> None then begin
    prerr_endline "e2e-loadgen: --self-serve and --spawn-shards are mutually exclusive";
    exit 2
  end;
  if drainers < 1 then begin
    prerr_endline "e2e-loadgen: --drainers must be >= 1";
    exit 2
  end;
  if upstream_conns < 1 then begin
    prerr_endline "e2e-loadgen: --upstream-conns must be >= 1";
    exit 2
  end;
  if (failover || cluster_sweep <> None || upstream_sweep <> None) && tcp_mode then begin
    prerr_endline
      "e2e-loadgen: --failover-check, --cluster-sweep and --upstream-sweep spawn their \
       own clusters";
    exit 2
  end;
  if failover then
    exit (if failover_check ~config ~window ~seed ~upstream_conns then 0 else 1);
  (match (cluster_sweep, upstream_sweep) with
  | None, None -> ()
  | counts, upstream ->
      run_cluster_sweep
        ~counts:(Option.value ~default:[] counts)
        ~upstream:(Option.value ~default:[] upstream)
        ~config ~connections ~pipeline ~shops:cluster_shops ~requests ~seed ~window ~jobs
        ~out;
      exit 0);
  if reply_log <> None && not tcp_mode then begin
    prerr_endline "e2e-loadgen: --reply-log requires a TCP mode";
    exit 2
  end;
  let transport =
    if self_serve then "self-tcp" else if spawn_shards <> None then "cluster-self" else "inproc"
  in
  if det_clock then begin
    (* Dyadic step: every reading is an exact float, so durations and
       their sums are exact and the trace is byte-reproducible. *)
    let k = ref 0 in
    Obs.Clock.set_source (fun () ->
        incr k;
        float_of_int !k *. (1. /. 1024.))
  end;
  (* Telemetry passes: a traced or deterministic-clock run is
     instrumented throughout (the stage histograms are its point); a
     plain benchmark run measures with the registry off — the
     transport's real configuration — and, when a JSON report is
     requested, replays once more instrumented to attribute stage
     costs. *)
  let instrumented = (trace <> None || det_clock) && not tcp_mode in
  if instrumented then begin
    Obs.set_stats true;
    Obs.reset_metrics ()
  end;
  let trace_oc =
    match (trace, tcp_mode) with
    | Some path, false ->
        let oc = Out_channel.open_text path in
        Rtrace.set_writer
          (Some
             (fun line ->
               Out_channel.output_string oc line;
               Out_channel.output_char oc '\n'));
        Some (path, oc)
    | Some _, true ->
        prerr_endline
          "e2e-loadgen: --trace requires the in-process engine (no --self-serve or \
           --spawn-shards)";
        exit 2
    | None, _ -> None
  in
  let (duration, latency, tally, cache_stats, keyer_stats), info =
    if self_serve then
      ( run_self
          ~streams:(client_streams ~connections ~seed ~requests)
          ~config ~accept_pool ~window ~drainers ~pipeline ~reply_log,
        None )
    else
      match spawn_shards with
      | Some n ->
          let cl =
            spawn_cluster ~nshards:(max 1 n) ~config ~window ~probe_interval:0.5
              ~client_slots:(connections + 2) ~upstream_conns ()
          in
          let streams = client_streams ~connections ~seed ~requests in
          let duration, results = run_clients ~port:cl.cl_port ~streams ~pipeline in
          write_reply_logs reply_log results;
          let info = cluster_info_of_stats (Dispatcher.stats cl.cl_t) in
          stop_cluster cl;
          let latency, tally = merge_client_results results in
          ((duration, latency, tally, None, None), Some info)
      | None -> (run_inproc ~stream:(gen_stream ~seed ~requests ()) ~config, None)
  in
  (match trace_oc with
  | None -> ()
  | Some (path, oc) ->
      Rtrace.set_writer None;
      Out_channel.close oc;
      Format.printf "wrote %s@." path);
  let stages =
    if instrumented then capture_stages ()
    else if out <> None && not tcp_mode then begin
      (* Second, instrumented pass purely for the stage attribution in
         the JSON report; the headline duration stays the
         uninstrumented run's. *)
      Obs.set_stats true;
      Obs.reset_metrics ();
      ignore (run_inproc ~stream:(gen_stream ~seed ~requests ()) ~config);
      capture_stages ()
    end
    else []
  in
  let sweep =
    match (sweep, tcp_mode) with
    | None, _ | _, true -> []
    | Some capacities, false ->
        let stream = gen_stream ~seed ~requests () in
        List.filter_map
          (fun capacity ->
            let config = { config with Batcher.cache_capacity = capacity } in
            let _, _, _, stats, _ = run_inproc ~stream ~config in
            Option.map (fun s -> (capacity, s)) stats)
          capacities
  in
  let sat =
    match sat_conns with
    | None -> []
    | Some conns ->
        if tcp_mode then begin
          prerr_endline "e2e-loadgen: the saturation sweep runs its own embedded servers";
          exit 2
        end;
        (* The sweep measures the transport at its native configuration:
           registry off, like the headline pass. *)
        Obs.set_stats false;
        let batches = match sat_batch with None -> [ config.Batcher.batch ] | Some l -> l in
        let points = List.concat_map (fun c -> List.map (fun b -> (c, b)) batches) conns in
        run_sat_sweep ~seed ~requests ~config ~pipeline ~window points
  in
  let sat =
    sat
    @
    match drainer_sweep with
    | None -> []
    | Some counts ->
        if tcp_mode then begin
          prerr_endline "e2e-loadgen: the drainer sweep runs its own embedded servers";
          exit 2
        end;
        Obs.set_stats false;
        run_drainer_sweep ~counts ~config ~connections ~pipeline ~shops:cluster_shops
          ~requests ~seed ~window
  in
  let connections = if tcp_mode then connections else 1 in
  Option.iter print_cluster_info info;
  let extra = match info with None -> [] | Some ci -> [ ("cluster", cluster_json ci) ] in
  report ~extra ~out ~requests ~jobs ~config ~transport ~connections ~duration ~latency
    ~tally ~cache_stats ~keyer_stats ~stages ~sweep ~sat ()

let () =
  let doc = "Load generator for the e2e-serve admission service" in
  let info = Cmd.info "e2e-loadgen" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ requests_arg $ seed_arg $ jobs_arg $ batch_arg $ queue_arg $ cache_arg
      $ sweep_arg $ self_serve_arg $ connections_arg $ pipeline_arg $ accept_pool_arg
      $ window_arg $ drainers_arg $ drainer_sweep_arg $ upstream_sweep_arg
      $ upstream_conns_arg $ reply_log_arg $ sat_conns_arg $ sat_batch_arg $ out_arg
      $ trace_arg $ det_clock_arg $ spawn_shards_arg $ cluster_sweep_arg
      $ cluster_shops_arg $ failover_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
