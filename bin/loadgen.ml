(* Load generator for the admission service.

   e2e-loadgen --requests 2000 --seed 42 -j 4 --out BENCH_serve.json
   e2e-loadgen --self-serve --connections 1,2,4,8 --batch 16,64 --requests 2000
   e2e-loadgen --spawn-shards 1,2,4 --resubmit-shops 96 --cache 128

   Replays a Prng-seeded request stream against one of three
   topologies: an in-process Batcher (default; measures the engine
   itself), an in-process concurrent TCP server on an ephemeral port
   with --drainers stripes (--self-serve; measures the whole
   transport), or --spawn-shards in-process shards behind an in-process
   dispatcher with --upstream-conns lanes per shard.  TCP topologies
   replay over --connections parallel client domains, each closed-loop
   with up to --pipeline requests in flight, on disjoint per-connection
   shop namespaces so every connection's reply log is deterministic.

   The default stream mixes submits of fresh task sets, permuted and
   exact resubmissions (canonical-cache exercisers), incremental adds,
   queries and drops; --resubmit-shops K switches to K seeded shops per
   connection resubmitted with permuted instances.

   --cache, --batch, --connections, --drainers, --spawn-shards and
   --upstream-conns take comma lists: the run measures their cross
   product, one point each, printed to stdout and, with --out, appended
   to a JSONL file as one self-describing record per point (config,
   host, throughput, latency, verdicts, cache and cluster figures). *)

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

(* The seed-then-resubmit workload (--resubmit-shops): [shops] seeding
   submits establish this connection's shops, then the stream
   resubmits random shops with freshly permuted instances (same
   canonical form, disjoint per-connection namespaces).  A permuted
   resubmission is answered from the shard's (or stripe's) canonical
   solver cache when the shop's entry is resident and pays a full
   solve when it was evicted — so the scaling lever is aggregate cache
   capacity: routing is sticky, each shard's LRU holds exactly its own
   shops, and a working set a few times one shard's [--cache] thrashes
   a single shard while enough shards hold it entirely.  That is the
   honest sharding win available on any core count; CPU fan-out is not
   (the bench host may be a single core).  Instances are a little bigger than gen_stream's so the solve :
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

(* Per-connection streams: [requests] split as evenly as possible over
   [connections], each on its own shop namespace.  On the mixed
   workload a single connection replays the classic unprefixed
   stream. *)
let client_streams ~connections ~seed ~requests ~shops =
  let split gen =
    List.init connections (fun c ->
        gen c ((requests / connections) + if c < requests mod connections then 1 else 0))
  in
  match shops with
  | Some shops -> split (fun cid requests -> gen_cluster_stream ~cid ~seed ~shops ~requests ())
  | None when connections <= 1 -> [ gen_stream ~seed ~requests () ]
  | None -> split (fun cid requests -> gen_stream ~cid ~seed ~requests ())

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)

type tally = {
  mutable admitted : int;
  mutable rejected : int;
  mutable undecided : int;
  mutable info : int;
  mutable dropped : int;
  mutable errors : int;
  mutable overloaded : int;
}

let new_tally () =
  { admitted = 0; rejected = 0; undecided = 0; info = 0; dropped = 0; errors = 0;
    overloaded = 0 }

let tally_reply t = function
  | Admission.Decided { decision = Admission.Admitted _; _ } -> t.admitted <- t.admitted + 1
  | Admission.Decided { decision = Admission.Rejected _; _ } -> t.rejected <- t.rejected + 1
  | Admission.Decided { decision = Admission.Undecided _; _ } ->
      t.undecided <- t.undecided + 1
  | Admission.Queried _ -> t.info <- t.info + 1
  | Admission.Dropped _ -> t.dropped <- t.dropped + 1
  | Admission.Request_error _ -> t.errors <- t.errors + 1

let tally_line t line =
  match String.split_on_char ' ' line with
  | "admitted" :: _ -> t.admitted <- t.admitted + 1
  | "rejected" :: _ -> t.rejected <- t.rejected + 1
  | "undecided" :: _ -> t.undecided <- t.undecided + 1
  | "info" :: _ -> t.info <- t.info + 1
  | "dropped" :: _ -> t.dropped <- t.dropped + 1
  | "overloaded" :: _ -> t.overloaded <- t.overloaded + 1
  | _ -> t.errors <- t.errors + 1

(* In-process replay against the batcher; per-request latency = reply
   time - arrival time, both read from [Obs.Clock] so a deterministic
   source makes the whole measurement (and any trace) reproducible. *)
let run_inproc ~stream ~config =
  let batcher = Batcher.create ~config () in
  let n = List.length stream in
  let t_arrival = Array.make n 0. in
  let latency = Quantile.create () in
  let tally = new_tally () in
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
  (duration, latency, tally, batcher)

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

(* Every stream on its own client domain against the loopback [port];
   the per-connection reply logs go to [reply_log].conn<k>, the
   latency sketches and tallies are merged. *)
let run_clients ~port ~streams ~pipeline ~reply_log =
  let t0 = Unix.gettimeofday () in
  let domains =
    List.map
      (fun stream -> Domain.spawn (fun () -> run_client ~port ~stream ~pipeline))
      streams
  in
  let results = List.map Domain.join domains in
  let duration = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun prefix ->
      List.iteri
        (fun i (_, _, log) ->
          Out_channel.with_open_text
            (Printf.sprintf "%s.conn%d" prefix i)
            (fun oc -> List.iter (fun line -> output_string oc (line ^ "\n")) log))
        results)
    reply_log;
  let latency =
    List.fold_left (fun acc (q, _, _) -> Quantile.merge acc q) (Quantile.create ()) results
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
  (duration, latency, tally)

(* ------------------------------------------------------------------ *)
(* Embedded servers and clusters                                      *)

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
let spawn_shard ~config ~accept_pool ?(port = 0) () =
  let control = Wire.control () in
  let set, get = wait_slot () in
  let stripes = E2e_serve.Stripes.create ~config () in
  let domain =
    Domain.spawn (fun () ->
        Server.serve_tcp ~schedules:false ~accept_pool ~ready:set ~control ~port stripes)
  in
  { sh_port = get (); sh_control = control; sh_domain = domain }

type cluster = {
  cl_shards : shard list;
  cl_t : Dispatcher.t;
  cl_domain : unit Domain.t;
  cl_port : int;
}

let spawn_cluster ~nshards ~config ~probe_interval ~client_slots ~upstream_conns =
  (* A shard accept thread owns its connection for the connection's
     lifetime, and every dispatcher lane is a persistent connection: the
     pool must fit all lanes plus a probe and a metrics RPC at once, or
     the overflow lane (and the status checker) starve in the backlog. *)
  let shards =
    List.init nshards (fun _ ->
        spawn_shard ~config ~accept_pool:(max 3 (upstream_conns + 2)) ())
  in
  let dconfig = { Dispatcher.default_config with probe_interval; upstream_conns } in
  let t =
    Dispatcher.create ~config:dconfig
      (List.map (fun s -> ("127.0.0.1", s.sh_port)) shards)
  in
  let set, get = wait_slot () in
  let ddomain =
    Domain.spawn (fun () -> Dispatcher.serve ~accept_pool:client_slots ~ready:set ~port:0 t)
  in
  { cl_shards = shards; cl_t = t; cl_domain = ddomain; cl_port = get () }

let stop_cluster c =
  Dispatcher.shutdown c.cl_t;
  Domain.join c.cl_domain;
  List.iter (fun s -> Wire.shutdown s.sh_control) c.cl_shards;
  List.iter (fun s -> Domain.join s.sh_domain) c.cl_shards

(* ------------------------------------------------------------------ *)
(* One measured point                                                 *)

type topology =
  | Inproc
  | Server of { drainers : int }
  | Cluster of { shards : int; lanes : int }

(* The axes a list flag varies; one value of each is one point. *)
type setting = { topology : topology; connections : int; batch : int; cache : int }

(* What stays fixed across the points of one run. *)
type run = {
  requests : int;
  seed : int;
  jobs : int;
  pipeline : int;
  shops : int option;  (* [Some k]: the seed-then-resubmit workload *)
}

type point = {
  setting : setting;
  duration : float;
  latency : Quantile.t;
  tally : tally;
  cache_stats : Cache.stats option;
  keyer_stats : Cache.Keyer.stats option;
  cluster : Dispatcher.stats option;  (* routing balance and failover counters *)
}

let engine_config run s =
  { Batcher.default_config with batch = s.batch; jobs = run.jobs; cache_capacity = s.cache }

(* Replay the run's streams against one freshly built topology. *)
let measure ?reply_log run s =
  let config = engine_config run s in
  let streams =
    client_streams ~connections:s.connections ~seed:run.seed ~requests:run.requests
      ~shops:run.shops
  in
  let clients port = run_clients ~port ~streams ~pipeline:run.pipeline ~reply_log in
  let point duration latency tally =
    { setting = s; duration; latency; tally; cache_stats = None; keyer_stats = None;
      cluster = None }
  in
  match s.topology with
  | Inproc ->
      let duration, latency, tally, batcher =
        run_inproc ~stream:(List.concat streams) ~config
      in
      { (point duration latency tally) with
        cache_stats = Batcher.cache_stats batcher;
        keyer_stats = Some (Batcher.keyer_stats batcher) }
  | Server { drainers } ->
      let stripes = E2e_serve.Stripes.create ~config ~stripes:drainers () in
      let set, get = wait_slot () in
      let server =
        Domain.spawn (fun () ->
            Server.serve_tcp ~max_connections:s.connections
              ~accept_pool:(min s.connections 8) ~ready:set ~port:0 stripes)
      in
      let duration, latency, tally = clients (get ()) in
      Domain.join server;
      { (point duration latency tally) with
        cache_stats = E2e_serve.Stripes.cache_stats stripes;
        keyer_stats = Some (E2e_serve.Stripes.keyer_stats stripes) }
  | Cluster { shards; lanes } ->
      let cl =
        spawn_cluster ~nshards:shards ~config ~probe_interval:0.5
          ~client_slots:(s.connections + 2) ~upstream_conns:lanes
      in
      let duration, latency, tally = clients cl.cl_port in
      let stats = Dispatcher.stats cl.cl_t in
      stop_cluster cl;
      { (point duration latency tally) with cluster = Some stats }

(* ------------------------------------------------------------------ *)
(* Reporting: one stdout block and one JSONL record per point.         *)

let ms x = x *. 1000.

let rps p =
  if p.duration > 0. then float_of_int (Quantile.count p.latency) /. p.duration else 0.

let hit_rate { Cache.hits; misses; _ } =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let topology_name = function
  | Inproc -> "inproc"
  | Server _ -> "server"
  | Cluster _ -> "cluster"

(* The value of every axis a list flag can vary that [s]'s topology
   has, by name. *)
let axis_values s =
  [ ("cache_capacity", s.cache); ("batch", s.batch); ("connections", s.connections) ]
  @
  match s.topology with
  | Inproc -> []
  | Server { drainers } -> [ ("drainers", drainers) ]
  | Cluster { shards; lanes } -> [ ("shards", shards); ("upstream_conns", lanes) ]

let sketch_json ?(count = false) q =
  Json.Obj
    ([
       ("p50", Json.Num (ms (Quantile.quantile q 0.50)));
       ("p95", Json.Num (ms (Quantile.quantile q 0.95)));
       ("p99", Json.Num (ms (Quantile.quantile q 0.99)));
       ("max", Json.Num (ms (Quantile.max_value q)));
     ]
    @ if count then [ ("count", Json.int (Quantile.count q)) ] else [])

let print_point ~stages p =
  let s = p.setting in
  Format.printf "point         topology=%s%s@." (topology_name s.topology)
    (String.concat ""
       (List.map (fun (name, v) -> Printf.sprintf " %s=%d" name v) (axis_values s)));
  let pct q x = ms (Quantile.quantile q x) in
  let t = p.tally in
  Format.printf "requests      %d completed, %d overloaded@." (Quantile.count p.latency)
    t.overloaded;
  Format.printf "duration      %.3fs  (%.0f requests/s)@." p.duration (rps p);
  List.iter
    (fun (stage, q) ->
      Format.printf "%-13s p50=%.3f p95=%.3f p99=%.3f max=%.3f@." stage (pct q 0.50)
        (pct q 0.95) (pct q 0.99)
        (ms (Quantile.max_value q)))
    (("latency (ms)", p.latency) :: List.map (fun (st, q) -> ("stage " ^ st, q)) stages);
  Format.printf "verdicts      admitted=%d rejected=%d undecided=%d info=%d dropped=%d \
                 errors=%d@."
    t.admitted t.rejected t.undecided t.info t.dropped t.errors;
  Option.iter
    (fun ({ Cache.hits; misses; evictions; size } as c) ->
      Format.printf "cache         hits=%d misses=%d evictions=%d size=%d hit_rate=%.3f@."
        hits misses evictions size (hit_rate c))
    p.cache_stats;
  Option.iter
    (fun { Cache.Keyer.reused; rendered } ->
      Format.printf "keyer         reused=%d rendered=%d@." reused rendered)
    p.keyer_stats;
  Option.iter
    (fun { Dispatcher.routed; unavailable; per_shard; registry_stats = r; _ } ->
      Format.printf "cluster       shards=%d live=%d routed=%d failovers=%d unavailable=%d@."
        r.Registry.shards r.live_shards routed r.failovers unavailable;
      List.iter
        (fun sh ->
          Format.printf "shard         %-22s routed=%d@." sh.Dispatcher.shard_id
            sh.shard_routed)
        per_shard)
    p.cluster

(* The point as one self-describing record: the full config and host
   it ran on, then its figures. *)
let point_json run ~stages p =
  let s = p.setting in
  let opt f = function None -> Json.Null | Some x -> f x in
  let t = p.tally in
  Json.Obj
    ([
       ( "config",
         Json.Obj
           ((("topology", Json.Str (topology_name s.topology))
            :: List.map (fun (name, v) -> (name, Json.int v)) (axis_values s))
           @ [
               ("pipeline", Json.int run.pipeline);
               ("jobs", Json.int run.jobs);
               ( "workload",
                 Json.Str (if run.shops = None then "mixed" else "seed-then-resubmit") );
               ("shops_per_connection", opt Json.int run.shops);
               ("requests", Json.int run.requests);
               ("seed", Json.int run.seed);
             ]) );
       ("host", Obs.host ());
       ("completed", Json.int (Quantile.count p.latency));
       ("duration_s", Json.Num p.duration);
       ("requests_per_sec", Json.Num (rps p));
       ("latency_ms", sketch_json p.latency);
       ( "verdicts",
         Json.Obj
           [
             ("admitted", Json.int t.admitted);
             ("rejected", Json.int t.rejected);
             ("undecided", Json.int t.undecided);
             ("info", Json.int t.info);
             ("dropped", Json.int t.dropped);
             ("errors", Json.int t.errors);
             ("overloaded", Json.int t.overloaded);
           ] );
       ( "cache",
         opt
           (fun ({ Cache.hits; misses; evictions; size } as c) ->
             Json.Obj
               [
                 ("hits", Json.int hits);
                 ("misses", Json.int misses);
                 ("evictions", Json.int evictions);
                 ("size", Json.int size);
                 ("hit_rate", Json.Num (hit_rate c));
               ])
           p.cache_stats );
       ( "keyer",
         opt
           (fun { Cache.Keyer.reused; rendered } ->
             Json.Obj [ ("reused", Json.int reused); ("rendered", Json.int rendered) ])
           p.keyer_stats );
     ]
    @ (match p.cluster with
      | None -> []
      | Some { Dispatcher.routed; unavailable; per_shard; registry_stats = r; _ } ->
          [
            ( "cluster",
              Json.Obj
                [
                  ("shards", Json.int r.Registry.shards);
                  ("live", Json.int r.live_shards);
                  ("routed", Json.int routed);
                  ("failovers", Json.int r.failovers);
                  ("unavailable", Json.int unavailable);
                  ( "balance",
                    Json.Obj
                      (List.map
                         (fun sh -> (sh.Dispatcher.shard_id, Json.int sh.shard_routed))
                         per_shard) );
                ] );
          ])
    @
    match stages with
    | [] -> []
    | stages ->
        [
          ( "stage_latency_ms",
            Json.Obj
              (List.map (fun (stage, q) -> (stage, sketch_json ~count:true q)) stages) );
        ])

(* When exactly one axis varies across [points], the throughput ratio
   from its smallest to its largest value. *)
let print_scaling = function
  | [] -> ()
  | first :: _ as points -> (
      let value name p = List.assoc name (axis_values p.setting) in
      match
        List.filter
          (fun name -> List.exists (fun p -> value name p <> value name first) points)
          (List.map fst (axis_values first.setting))
      with
      | [ name ] ->
          let pick better =
            List.fold_left
              (fun a p -> if better (value name p) (value name a) then p else a)
              first points
          in
          let lo = pick ( < ) and hi = pick ( > ) in
          if rps lo > 0. then
            Format.printf "scaling %s %d -> %d: %.2fx requests/s@." name (value name lo)
              (value name hi)
              (rps hi /. rps lo)
      | _ -> ())


(* ------------------------------------------------------------------ *)
(* Failover check: 2 shards + dispatcher, kill one mid-burst, assert
   every in-flight request still gets a reply (the deterministic
   [error shard-unavailable], never a hang), traffic recovers on the
   surviving shard, and a shard returning on the same address is
   re-admitted and routed to again.                                   *)

let failover_check ~config ~seed ~upstream_conns =
  let cluster =
    spawn_cluster ~nshards:2 ~config ~probe_interval:0.2 ~client_slots:3 ~upstream_conns
  in
  let fail_reasons = ref [] in
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
  let reborn = spawn_shard ~config ~accept_pool:3 ~port:dead_port () in
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
  (* The killed shard's domain is already joined; the reborn shard
     takes its place in the teardown. *)
  stop_cluster { cluster with cl_shards = reborn :: List.tl cluster.cl_shards };
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

let ints_arg names ~default ~docv doc =
  Arg.(value & opt (list int) [ default ] & info names ~docv ~doc)

let requests_arg =
  let doc = "Number of requests in the stream (split over the connections)." in
  Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Stream seed: the request sequence is a pure function of it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc = "Worker domains for the engine's batch solves." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let batch_arg =
  ints_arg [ "batch" ] ~default:Batcher.default_config.Batcher.batch ~docv:"N,..."
    "Batch size of the engine (a comma list measures each)."

let cache_arg =
  ints_arg [ "cache"; "cache-capacity" ]
    ~default:Batcher.default_config.Batcher.cache_capacity ~docv:"N,..."
    "Solver-cache capacity of the engine, per stripe or shard (0 = off; a comma list \
     measures each)."

let self_serve_arg =
  let doc =
    "Start the concurrent TCP server in-process on an ephemeral port and replay against it \
     over real sockets: the whole-transport measurement (engine config flags apply to the \
     embedded server)."
  in
  Arg.(value & flag & info [ "self-serve" ] ~doc)

let connections_arg =
  ints_arg [ "connections" ] ~default:1 ~docv:"C,..."
    "Parallel client connections for the TCP topologies; each replays an independent \
     stream on a disjoint shop namespace (a single connection replays the classic \
     stream).  A comma list measures each."

let pipeline_arg =
  let doc = "Requests each client keeps in flight (the closed-loop pipelining window)." in
  Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"W" ~doc)

let drainers_arg =
  ints_arg [ "drainers" ] ~default:1 ~docv:"D,..."
    "Drainer stripes of the embedded --self-serve server (the queue is sharded by shop; \
     one drainer domain per stripe).  Per-connection reply logs are byte-identical at \
     every value.  A comma list measures each."

let upstream_conns_arg =
  ints_arg [ "upstream-conns" ] ~default:1 ~docv:"K,..."
    "Pipelined upstream connections per shard of the --spawn-shards dispatcher (a comma \
     list measures each)."

let spawn_shards_arg =
  let doc =
    "Start $(docv) in-process shards (each a full TCP e2e-serve) behind an in-process \
     dispatcher on ephemeral ports and replay against the dispatcher: the whole-cluster \
     measurement (engine config flags apply to every shard).  A comma list measures a \
     fresh cluster per count."
  in
  Arg.(value & opt (some (list int)) None & info [ "spawn-shards" ] ~docv:"N,..." ~doc)

let resubmit_shops_arg =
  let doc =
    "Replay the seed-then-resubmit workload instead of the mixed stream: each connection \
     seeds $(docv) shops, then drops and resubmits random ones with permuted instances \
     (a working set of connections x $(docv) canonical entries against --cache)."
  in
  Arg.(value & opt (some int) None & info [ "resubmit-shops" ] ~docv:"K" ~doc)

let reply_log_arg =
  let doc =
    "Write each connection's received lines to $(docv).conn<k> (TCP topologies, one point \
     only) — the per-connection determinism artifacts `make check` byte-compares."
  in
  Arg.(value & opt (some string) None & info [ "reply-log" ] ~docv:"PREFIX" ~doc)

let out_arg =
  let doc = "Append one JSONL record per measured point to $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Write one JSONL request-trace record per pipeline stage per request to $(docv) \
     (analyse with e2e-trace; in-process replay of one point only)."
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

let failover_arg =
  let doc =
    "Run the cluster failover check: 2 in-process shards behind a dispatcher, kill one \
     mid-burst, assert every request is answered (deterministic shard-unavailable errors, \
     no hangs), traffic recovers on the survivor, and a restarted shard is re-admitted.  \
     Exits non-zero on failure."
  in
  Arg.(value & flag & info [ "failover-check" ] ~doc)

(* Stage sketches accumulated by Rtrace.finish during an instrumented
   in-process run, in pipeline order, with the end-to-end sketch last. *)
let capture_stages () =
  let sk = Obs.sketches () in
  let find name = List.assoc_opt name sk in
  List.filter_map
    (fun stage -> Option.map (fun q -> (stage, q)) (find ("serve.stage." ^ stage)))
    (Array.to_list Rtrace.stages)
  @ (match find "serve.e2e" with Some q -> [ ("e2e", q) ] | None -> [])

let usage msg =
  prerr_endline ("e2e-loadgen: " ^ msg);
  exit 2

let main requests seed jobs batches caches self_serve connections pipeline drainers lanes
    spawn_shards shops reply_log out trace det_clock failover =
  let run = { requests; seed; jobs = Pool.resolve_jobs jobs; pipeline; shops } in
  if self_serve && spawn_shards <> None then
    usage "--self-serve and --spawn-shards are mutually exclusive";
  let lists =
    [ ("--cache", 0, caches); ("--batch", 1, batches); ("--connections", 1, connections);
      ("--drainers", 1, drainers); ("--upstream-conns", 1, lanes);
      ("--spawn-shards", 1, Option.value ~default:[] spawn_shards) ]
  in
  List.iter
    (fun (flag, lo, values) ->
      if List.exists (fun v -> v < lo) values then
        usage (Printf.sprintf "%s must be >= %d" flag lo))
    lists;
  let single = List.for_all (fun (_, _, values) -> List.length values <= 1) lists in
  let kind =
    match spawn_shards with
    | Some counts -> `Cluster counts
    | None -> if self_serve then `Server else `Inproc
  in
  let settings =
    let ( let* ) l f = List.concat_map f l in
    let* cache = caches in
    let* connections = if kind = `Inproc then [ 1 ] else connections in
    let* batch = batches in
    let* topology =
      match kind with
      | `Inproc -> [ Inproc ]
      | `Server -> List.map (fun drainers -> Server { drainers }) drainers
      | `Cluster counts ->
          let* shards = counts in
          List.map (fun lanes -> Cluster { shards; lanes }) lanes
    in
    [ { topology; connections; batch; cache } ]
  in
  List.iter
    (fun (set, flag) ->
      if set && not single then
        usage (flag ^ " measures one point: give each list flag one value"))
    [ (reply_log <> None, "--reply-log"); (trace <> None, "--trace");
      (failover, "--failover-check") ];
  if failover then begin
    if kind <> `Inproc then usage "--failover-check spawns its own cluster";
    let s = List.hd settings in
    exit
      (if failover_check ~config:(engine_config run s) ~seed ~upstream_conns:(List.hd lanes)
       then 0
       else 1)
  end;
  if reply_log <> None && kind = `Inproc then usage "--reply-log requires a TCP topology";
  if trace <> None && kind <> `Inproc then
    usage "--trace requires the in-process engine (no --self-serve or --spawn-shards)";
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
     plain run measures with the registry off — the transport's real
     configuration — and, when a JSON record is requested of an
     in-process point, replays once more instrumented to attribute
     stage costs. *)
  let instrumented = (trace <> None || det_clock) && kind = `Inproc in
  let trace_oc =
    Option.map
      (fun path ->
        let oc = Out_channel.open_text path in
        Rtrace.set_writer
          (Some
             (fun line ->
               Out_channel.output_string oc line;
               Out_channel.output_char oc '\n'));
        (path, oc))
      trace
  in
  let points =
    List.map
      (fun s ->
        Obs.set_stats instrumented;
        Obs.reset_metrics ();
        let p = measure ?reply_log run s in
        let stages =
          if instrumented then capture_stages ()
          else if out <> None && s.topology = Inproc then begin
            (* The headline duration stays the uninstrumented pass's. *)
            Obs.set_stats true;
            Obs.reset_metrics ();
            ignore (measure run s);
            capture_stages ()
          end
          else []
        in
        print_point ~stages p;
        Option.iter
          (fun path ->
            Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
              (fun oc ->
                output_string oc (Json.to_string (point_json run ~stages p));
                output_char oc '\n'))
          out;
        p)
      settings
  in
  Option.iter
    (fun (path, oc) ->
      Rtrace.set_writer None;
      Out_channel.close oc;
      Format.printf "wrote %s@." path)
    trace_oc;
  print_scaling points;
  Option.iter
    (fun path -> Format.printf "appended %d point(s) to %s@." (List.length points) path)
    out

let () =
  let doc = "Load generator for the e2e-serve admission service" in
  let info = Cmd.info "e2e-loadgen" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const main $ requests_arg $ seed_arg $ jobs_arg $ batch_arg $ cache_arg
      $ self_serve_arg $ connections_arg $ pipeline_arg $ drainers_arg $ upstream_conns_arg
      $ spawn_shards_arg $ resubmit_shops_arg $ reply_log_arg $ out_arg $ trace_arg
      $ det_clock_arg $ failover_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
