(* The cluster layer: consistent-hash routing (stickiness, balance,
   failover order), registry membership and liveness round-trips,
   metrics relabeling, and the dispatcher end to end — two in-process
   shards behind a TCP front end, with ctl/1 registration, a mid-run
   shard kill, and reply-order preservation under cross-shard
   pipelining. *)

module Registry = E2e_cluster.Registry
module Dispatcher = E2e_cluster.Dispatcher
module Health = E2e_cluster.Health
module Batcher = E2e_serve.Batcher
module Server = E2e_serve.Server
module Wire = E2e_serve.Wire

(* ------------------------------------------------------------------ *)
(* Registry unit tests                                                *)

let shards n = List.init n (fun i -> ("127.0.0.1", 7071 + i))
let id i = Printf.sprintf "127.0.0.1:%d" (7071 + i)
let shop k = Printf.sprintf "shop-%d" k

let test_parse_id () =
  Alcotest.(check (option (pair string int)))
    "host:port" (Some ("10.0.0.1", 7070))
    (Registry.parse_id "10.0.0.1:7070");
  Alcotest.(check (option (pair string int)))
    "last colon wins" (Some ("a:b", 9))
    (Registry.parse_id "a:b:9");
  List.iter
    (fun bad ->
      Alcotest.(check (option (pair string int))) bad None (Registry.parse_id bad))
    [ "no-port"; ":7070"; "h:"; "h:0"; "h:65536"; "h:x" ];
  Alcotest.(check string) "id_of round-trips" "h:7070" (Registry.id_of ~host:"h" ~port:7070)

let test_routing_sticky () =
  let t = Registry.create (shards 4) in
  for k = 0 to 199 do
    let s = shop k in
    match (Registry.route t s, Registry.home t s) with
    | Some r, Some h ->
        Alcotest.(check string) "route = home when all live" h.Registry.id r.Registry.id;
        (* Stable under repetition and membership no-ops. *)
        let r2 = Option.get (Registry.route t s) in
        Alcotest.(check string) "route is deterministic" r.Registry.id r2.Registry.id
    | _ -> Alcotest.fail "route/home returned None with live shards"
  done;
  (* A second registry over the same membership routes identically. *)
  let t' = Registry.create (shards 4) in
  for k = 0 to 199 do
    let s = shop k in
    Alcotest.(check string) "routing is a pure function of membership"
      (Option.get (Registry.route t s)).Registry.id
      (Option.get (Registry.route t' s)).Registry.id
  done

let test_routing_balance () =
  List.iter
    (fun n ->
      let t = Registry.create (shards n) in
      let counts = Hashtbl.create n in
      let total = 1000 in
      for k = 0 to total - 1 do
        let e = Option.get (Registry.route t (shop k)) in
        Hashtbl.replace counts e.Registry.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.Registry.id))
      done;
      (* Every shard owns a non-trivial share: at least half its fair
         share of 1000 shops (deterministic — fixed ids and shops). *)
      let floor = total / n / 2 in
      for i = 0 to n - 1 do
        let c = Option.value ~default:0 (Hashtbl.find_opt counts (id i)) in
        if c < floor then
          Alcotest.failf "%d-shard ring: %s owns %d/%d shops (< %d)" n (id i) c total floor
      done)
    [ 2; 4; 8 ]

let test_failover_order () =
  let t = Registry.create (shards 4) in
  let homes = Array.init 200 (fun k -> (Option.get (Registry.home t (shop k))).Registry.id) in
  (* Kill shard 0: its shops move, every other shop stays put. *)
  Alcotest.(check bool) "report_down flips state" true (Registry.report_down t (id 0));
  Alcotest.(check bool) "report_down is idempotent" false (Registry.report_down t (id 0));
  let moved = ref 0 in
  for k = 0 to 199 do
    let r = (Option.get (Registry.route t (shop k))).Registry.id in
    if homes.(k) = id 0 then begin
      incr moved;
      if r = id 0 then Alcotest.failf "shop %d still routed to the dead shard" k
    end
    else Alcotest.(check string) "unaffected shop did not move" homes.(k) r
  done;
  Alcotest.(check bool) "the dead shard owned some shops" true (!moved > 0);
  let s = Registry.stats t in
  Alcotest.(check int) "deaths counted" 1 s.Registry.deaths;
  Alcotest.(check int) "failovers counted" !moved s.Registry.failovers;
  (* Revival sends every shop home. *)
  Alcotest.(check bool) "probe ok revives" true
    (Registry.note_probe t (id 0) ~ok:true = `Revived);
  for k = 0 to 199 do
    Alcotest.(check string) "shop back home after revival" homes.(k)
      (Option.get (Registry.route t (shop k))).Registry.id
  done

let test_probe_threshold () =
  let t = Registry.create ~fail_threshold:3 (shards 2) in
  Alcotest.(check bool) "1st failure below threshold" true
    (Registry.note_probe t (id 0) ~ok:false = `Unchanged);
  Alcotest.(check bool) "2nd failure below threshold" true
    (Registry.note_probe t (id 0) ~ok:false = `Unchanged);
  Alcotest.(check bool) "3rd consecutive failure kills" true
    (Registry.note_probe t (id 0) ~ok:false = `Died);
  Alcotest.(check bool) "one success revives" true
    (Registry.note_probe t (id 0) ~ok:true = `Revived);
  (* A success resets the consecutive-failure counter. *)
  ignore (Registry.note_probe t (id 0) ~ok:false);
  ignore (Registry.note_probe t (id 0) ~ok:true);
  Alcotest.(check bool) "counter reset by success" true
    (Registry.note_probe t (id 0) ~ok:false = `Unchanged);
  Alcotest.(check bool) "unknown shard reported" true
    (Registry.note_probe t "nope:1" ~ok:false = `Unknown)

(* The checker probes off the dispatcher's loop, so a probe can read
   its [pong] just before the shard dies and report it just after an
   upstream lane has reported the death: that success is stale and
   must not revive the shard.  A probe begun after the report still
   does. *)
let test_stale_probe_no_revival () =
  let t = Registry.create (shards 2) in
  let reports () = (Option.get (Registry.find_opt t (id 0))).Registry.reports in
  let since = reports () in
  Alcotest.(check bool) "hard error kills" true (Registry.report_down t (id 0));
  Alcotest.(check bool) "success from before the report ignored" true
    (Registry.note_probe ~since t (id 0) ~ok:true = `Unchanged);
  Alcotest.(check bool) "still dead" true
    ((Option.get (Registry.find_opt t (id 0))).Registry.state = Registry.Dead);
  Alcotest.(check bool) "success from after the report revives" true
    (Registry.note_probe ~since:(reports ()) t (id 0) ~ok:true = `Revived)

let test_membership_roundtrip () =
  let t = Registry.create (shards 2) in
  Alcotest.(check bool) "fresh add" true (Registry.add t ~host:"127.0.0.1" ~port:7073 = `Added);
  Alcotest.(check bool) "re-add is Already" true
    (Registry.add t ~host:"127.0.0.1" ~port:7073 = `Already);
  Alcotest.(check int) "three members" 3 (Registry.stats t).Registry.shards;
  (* The new shard takes ownership of some shops... *)
  let owned = ref 0 in
  for k = 0 to 399 do
    if (Option.get (Registry.route t (shop k))).Registry.id = id 2 then incr owned
  done;
  Alcotest.(check bool) "new shard owns shops" true (!owned > 0);
  (* ...and removing it hands exactly those shops back: the 2-shard
     routing is restored verbatim. *)
  let t2 = Registry.create (shards 2) in
  Alcotest.(check bool) "remove known" true (Registry.remove t (id 2));
  Alcotest.(check bool) "remove unknown" false (Registry.remove t (id 2));
  for k = 0 to 399 do
    Alcotest.(check string) "membership round-trip restores routing"
      (Option.get (Registry.route t2 (shop k))).Registry.id
      (Option.get (Registry.route t (shop k))).Registry.id
  done;
  (* No live shard at all: route must answer None, not spin. *)
  ignore (Registry.report_down t (id 0));
  ignore (Registry.report_down t (id 1));
  Alcotest.(check bool) "no live shard routes None" true (Registry.route t "x" = None)

let test_relabel () =
  Alcotest.(check string) "bare name"
    "serve_requests_total{shard=\"127.0.0.1:7071\"} 42"
    (Dispatcher.relabel ~shard:"127.0.0.1:7071" "serve_requests_total 42");
  Alcotest.(check string) "existing labels"
    "bucket{shard=\"s1\",le=\"0.5\"} 7"
    (Dispatcher.relabel ~shard:"s1" "bucket{le=\"0.5\"} 7");
  Alcotest.(check string) "quotes escaped"
    "m{shard=\"a\\\"b\"} 1"
    (Dispatcher.relabel ~shard:"a\"b" "m 1");
  Alcotest.(check string) "non-exposition line passes through" "garbage"
    (Dispatcher.relabel ~shard:"s" "garbage")

(* ------------------------------------------------------------------ *)
(* End-to-end: in-process shards behind a TCP dispatcher              *)

type shard = { sport : int; sctl : Wire.control; sdomain : unit Domain.t }

let wait_port () =
  let mu = Mutex.create () and cv = Condition.create () and port = ref 0 in
  let set p =
    Mutex.lock mu;
    port := p;
    Condition.signal cv;
    Mutex.unlock mu
  in
  let get () =
    Mutex.lock mu;
    while !port = 0 do
      Condition.wait cv mu
    done;
    let p = !port in
    Mutex.unlock mu;
    p
  in
  (set, get)

let spawn_shard () =
  let config = { Batcher.default_config with Batcher.jobs = 1; queue_capacity = 4096 } in
  let stripes = E2e_serve.Stripes.create ~config () in
  let sctl = Wire.control () in
  let set, get = wait_port () in
  let sdomain =
    Domain.spawn (fun () ->
        (* Room for two persistent upstream lanes plus a transient
           probe and a metrics RPC at once. *)
        Server.serve_tcp ~schedules:false ~accept_pool:4 ~window:64 ~control:sctl
          ~ready:set ~port:0 stripes)
  in
  { sport = get (); sctl; sdomain }

(* Two live shards behind a dispatcher with a fast status checker;
   [f] gets the client-facing port and the dispatcher handle. *)
let with_cluster ?(upstream_conns = 1) f =
  let s0 = spawn_shard () and s1 = spawn_shard () in
  let config =
    { Dispatcher.default_config with probe_interval = 0.1; probe_timeout = 1.0;
      upstream_conns }
  in
  let t =
    Dispatcher.create ~config [ ("127.0.0.1", s0.sport); ("127.0.0.1", s1.sport) ]
  in
  let set, get = wait_port () in
  let ddomain = Domain.spawn (fun () -> Dispatcher.serve ~accept_pool:3 ~ready:set ~port:0 t) in
  let finish () =
    Dispatcher.shutdown t;
    Domain.join ddomain;
    List.iter
      (fun s ->
        Wire.shutdown s.sctl;
        Domain.join s.sdomain)
      [ s0; s1 ]
  in
  match f (get ()) t (s0, s1) with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* A raw pipelined client: connect, read the greeting, expose line
   send/recv over buffered channels. *)
type client = { cfd : Unix.file_descr; cic : in_channel; coc : out_channel }

let client_connect port =
  let cfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect cfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 10.0;
  let cic = Unix.in_channel_of_descr cfd and coc = Unix.out_channel_of_descr cfd in
  let greeting = input_line cic in
  Alcotest.(check string) "dispatcher greeting" Dispatcher.greeting greeting;
  { cfd; cic; coc }

let client_send c lines =
  List.iter
    (fun l ->
      output_string c.coc l;
      output_char c.coc '\n')
    lines;
  flush c.coc

let client_recv c n = List.init n (fun _ -> input_line c.cic)
let client_close c = try Unix.close c.cfd with Unix.Unix_error _ -> ()

(* Shop names homed on a specific shard (by dispatcher registry). *)
let shops_on t ~shard_id ~n =
  let reg = Dispatcher.registry t in
  let rec go acc k =
    if List.length acc >= n then List.rev acc
    else
      let s = Printf.sprintf "es-%d" k in
      let acc =
        match Registry.home reg s with
        | Some e when e.Registry.id = shard_id -> s :: acc
        | _ -> acc
      in
      go acc (k + 1)
  in
  go [] 0

let test_e2e_sticky_and_order () =
  with_cluster (fun port t (s0, s1) ->
      let id0 = Registry.id_of ~host:"127.0.0.1" ~port:s0.sport in
      let id1 = Registry.id_of ~host:"127.0.0.1" ~port:s1.sport in
      (* Interleave queries for shops homed on both shards, pipelined
         in one burst: replies must come back in request order. *)
      let on0 = shops_on t ~shard_id:id0 ~n:8 and on1 = shops_on t ~shard_id:id1 ~n:8 in
      let interleaved = List.concat_map (fun (a, b) -> [ a; b ]) (List.combine on0 on1) in
      let c = client_connect port in
      client_send c (List.map (fun s -> "query " ^ s) interleaved);
      let replies = client_recv c (List.length interleaved) in
      List.iter2
        (fun s reply ->
          Alcotest.(check string) "reply order matches request order"
            (Printf.sprintf "info shop=%s unknown" s)
            reply)
        interleaved replies;
      (* Both shards took traffic, and repeating the burst keeps every
         shop on its shard (stickiness = per-shard counts just double). *)
      let per_shard () =
        List.map
          (fun s -> (s.Dispatcher.shard_id, s.Dispatcher.shard_routed))
          (Dispatcher.stats t).Dispatcher.per_shard
      in
      let counts1 = per_shard () in
      Alcotest.(check int) "both shards saw traffic" 2 (List.length counts1);
      Alcotest.(check (list (pair string int))) "balanced interleave"
        (List.sort compare [ (id0, 8); (id1, 8) ])
        (List.sort compare counts1);
      client_send c (List.map (fun s -> "query " ^ s) interleaved);
      ignore (client_recv c (List.length interleaved));
      List.iter2
        (fun (id, n) (id', n') ->
          Alcotest.(check string) "same shard set" id id';
          Alcotest.(check int) "every shop re-routed to its shard" (2 * n) n')
        counts1 (per_shard ());
      client_send c [ "quit" ];
      Alcotest.(check string) "quit answered" "bye" (input_line c.cic);
      client_close c)

let test_e2e_ctl_roundtrip () =
  with_cluster (fun port t (s0, s1) ->
      let id0 = Registry.id_of ~host:"127.0.0.1" ~port:s0.sport in
      let id1 = Registry.id_of ~host:"127.0.0.1" ~port:s1.sport in
      let c = client_connect port in
      (* Register a third (fictitious, but never routed-to) shard and
         make sure it shows up, then deregister and make sure it is
         gone.  Probe interval is 0.1s, so pick the assertions that
         hold regardless of its probed liveness. *)
      client_send c [ "ctl/1 shards" ];
      Alcotest.(check string) "initial membership"
        (Printf.sprintf "ok shards %s"
           (String.concat ","
              (List.map (fun i -> i ^ "=live") (List.sort compare [ id0; id1 ]))))
        (input_line c.cic);
      client_send c [ "ctl/1 register 127.0.0.1:1" ];
      Alcotest.(check string) "register reply" "ok registered 127.0.0.1:1 shards=3"
        (input_line c.cic);
      Alcotest.(check bool) "registered shard visible" true
        (Registry.find_opt (Dispatcher.registry t) "127.0.0.1:1" <> None);
      client_send c [ "ctl/1 deregister 127.0.0.1:1" ];
      Alcotest.(check string) "deregister reply" "ok deregistered 127.0.0.1:1 shards=2"
        (input_line c.cic);
      Alcotest.(check bool) "deregistered shard gone" true
        (Registry.find_opt (Dispatcher.registry t) "127.0.0.1:1" = None);
      client_send c [ "ctl/1 deregister 127.0.0.1:1" ];
      Alcotest.(check string) "double deregister errors"
        "error unknown shard 127.0.0.1:1" (input_line c.cic);
      client_send c [ "ctl/1 bogus"; "ctl/2 shards" ];
      Alcotest.(check string) "unknown ctl command" "error ctl unknown command \"bogus\""
        (input_line c.cic);
      Alcotest.(check string) "unsupported ctl version"
        "error unsupported control version ctl/2 (want ctl/1)" (input_line c.cic);
      client_send c [ "quit" ];
      ignore (input_line c.cic);
      client_close c;
      ignore port)

let test_e2e_failover_on_kill () =
  with_cluster (fun port t (s0, _s1) ->
      let id0 = Registry.id_of ~host:"127.0.0.1" ~port:s0.sport in
      let victims = shops_on t ~shard_id:id0 ~n:4 in
      let c = client_connect port in
      (* Warm traffic across the cluster, then kill shard 0. *)
      client_send c (List.map (fun s -> "query " ^ s) victims);
      ignore (client_recv c (List.length victims));
      Wire.shutdown s0.sctl;
      (* Keep querying a shop homed on the dead shard: every request is
         answered (shard-unavailable at worst, never a hang), and
         within the probe budget traffic fails over to the live
         shard. *)
      let victim = List.hd victims in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec await_failover unavailable =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "no failover within 10s of shard kill"
        else begin
          client_send c [ "query " ^ victim ];
          let reply = input_line c.cic in
          if reply = Printf.sprintf "info shop=%s unknown" victim then unavailable
          else if reply = Dispatcher.unavailable_reply then begin
            Unix.sleepf 0.05;
            await_failover (unavailable + 1)
          end
          else Alcotest.failf "unexpected reply during failover: %s" reply
        end
      in
      ignore (await_failover 0);
      let reg = Dispatcher.registry t in
      (match Registry.find_opt reg id0 with
      | Some e -> Alcotest.(check bool) "dead shard marked dead" true (e.Registry.state = Registry.Dead)
      | None -> Alcotest.fail "killed shard vanished from the registry");
      Alcotest.(check bool) "failover counted" true
        ((Registry.stats reg).Registry.failovers > 0);
      (* The re-routed shop now behaves normally (sticky on the live shard). *)
      client_send c [ "query " ^ victim; "query " ^ victim ];
      List.iter
        (fun reply ->
          Alcotest.(check string) "stable after failover"
            (Printf.sprintf "info shop=%s unknown" victim)
            reply)
        (client_recv c 2);
      client_send c [ "quit" ];
      ignore (input_line c.cic);
      client_close c;
      ignore port)

let test_e2e_metrics_aggregation () =
  with_cluster (fun port t (s0, s1) ->
      let c = client_connect port in
      client_send c [ "query warm-a"; "metrics" ];
      ignore (input_line c.cic);
      let reply = input_line c.cic in
      client_send c [ "quit" ];
      ignore (input_line c.cic);
      client_close c;
      Alcotest.(check bool) "metrics reply framed" true
        (String.length reply > 8 && String.sub reply 0 8 = "metrics ");
      let series = String.split_on_char ';' (String.sub reply 8 (String.length reply - 8)) in
      let has pfx = List.exists (fun l -> String.length l >= String.length pfx
                                          && String.sub l 0 (String.length pfx) = pfx) series in
      Alcotest.(check bool) "cluster_shards present" true (has "cluster_shards 2");
      Alcotest.(check bool) "cluster_live_shards present" true (has "cluster_live_shards 2");
      List.iter
        (fun s ->
          let sid = Registry.id_of ~host:"127.0.0.1" ~port:s.sport in
          Alcotest.(check bool)
            (Printf.sprintf "shard %s up series present" sid)
            true
            (has (Printf.sprintf "cluster_shard_up{shard=\"%s\"} 1" sid)))
        [ s0; s1 ];
      (* Relabeled shard series: at least one serve_* line carrying a
         shard label made it through. *)
      Alcotest.(check bool) "relabeled shard series present" true
        (List.exists
           (fun l ->
             String.length l > 6 && String.sub l 0 6 = "serve_"
             && (match String.index_opt l '{' with
                | Some i -> String.length l > i + 7 && String.sub l (i + 1) 6 = "shard="
                | None -> false))
           series);
      ignore (port, t))

(* Widened upstreams: with two lanes per shard, two concurrent clients
   land on distinct lanes (round-robin pick, sticky thereafter), yet
   each still reads its replies strictly in its own request order; the
   lane topology is visible in the aggregated metrics; and a shard kill
   drains BOTH lanes — every in-flight request is answered and traffic
   fails over, exactly as with one lane. *)
let test_e2e_multi_lane () =
  with_cluster ~upstream_conns:2 (fun port t (s0, s1) ->
      let id0 = Registry.id_of ~host:"127.0.0.1" ~port:s0.sport in
      let id1 = Registry.id_of ~host:"127.0.0.1" ~port:s1.sport in
      let on0 = shops_on t ~shard_id:id0 ~n:6 and on1 = shops_on t ~shard_id:id1 ~n:6 in
      let interleaved = List.concat_map (fun (a, b) -> [ a; b ]) (List.combine on0 on1) in
      let c1 = client_connect port and c2 = client_connect port in
      (* Both clients push the same interleaved cross-shard burst; each
         connection's replies must come back in its own request order
         whichever lane carries them. *)
      client_send c1 (List.map (fun s -> "query " ^ s) interleaved);
      client_send c2 (List.map (fun s -> "query " ^ s) interleaved);
      let check c label =
        let replies = client_recv c (List.length interleaved) in
        List.iter2
          (fun s reply ->
            Alcotest.(check string)
              (label ^ ": reply order matches request order")
              (Printf.sprintf "info shop=%s unknown" s)
              reply)
          interleaved replies
      in
      check c1 "client1";
      check c2 "client2";
      (* The lane topology shows in the aggregated exposition: config
         gauge, and both lanes of at least one shard connected (two
         clients -> round-robin picked lane 0 and lane 1). *)
      client_send c1 [ "metrics" ];
      let reply = input_line c1.cic in
      let series =
        String.split_on_char ';' (String.sub reply 8 (String.length reply - 8))
      in
      let has pfx =
        List.exists
          (fun l ->
            String.length l >= String.length pfx && String.sub l 0 (String.length pfx) = pfx)
          series
      in
      Alcotest.(check bool) "upstream_conns gauge" true (has "cluster_upstream_conns 2");
      Alcotest.(check bool) "a shard runs both lanes" true
        (List.exists
           (fun id -> has (Printf.sprintf "cluster_upstream_live_lanes{shard=\"%s\"} 2" id))
           [ id0; id1 ]);
      (* Kill shard 0 with requests on its lanes: every request is
         answered (unavailable at worst), then traffic fails over. *)
      let victim = List.hd on0 in
      Wire.shutdown s0.sctl;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec await_failover () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "no failover within 10s of shard kill"
        else begin
          client_send c1 [ "query " ^ victim ];
          let reply = input_line c1.cic in
          if reply = Printf.sprintf "info shop=%s unknown" victim then ()
          else if reply = Dispatcher.unavailable_reply then begin
            Unix.sleepf 0.05;
            await_failover ()
          end
          else Alcotest.failf "unexpected reply during multi-lane failover: %s" reply
        end
      in
      await_failover ();
      (* The second client keeps working too (its sticky pick was
         invalidated by the epoch bump, so it re-picks a live lane). *)
      client_send c2 [ "query " ^ victim ];
      Alcotest.(check bool) "client2 answered after lane drain" true
        (match input_line c2.cic with
        | reply ->
            reply = Printf.sprintf "info shop=%s unknown" victim
            || reply = Dispatcher.unavailable_reply);
      List.iter
        (fun c ->
          client_send c [ "quit" ];
          ignore (input_line c.cic);
          client_close c)
        [ c1; c2 ];
      ignore port)

(* The dispatcher serves every client from its one loop thread: with
   one client already answered (the loop and its status checker are up),
   64 more connections, each answering [ping] while all are open, start
   no thread.  (A thread per connection adds 64 or more.) *)
let threads () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let l = input_line ic in
    if String.length l > 8 && String.sub l 0 8 = "Threads:" then
      int_of_string (String.trim (String.sub l 8 (String.length l - 8)))
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let with_dispatcher ?(config = Dispatcher.default_config) ~accept_pool shards f =
  let t = Dispatcher.create ~config shards in
  let set, get = wait_port () in
  let d = Domain.spawn (fun () -> Dispatcher.serve ~accept_pool ~ready:set ~port:0 t) in
  Fun.protect
    ~finally:(fun () ->
      Dispatcher.shutdown t;
      Domain.join d)
    (fun () -> f (get ()))

let pong = "pong " ^ Dispatcher.version

let test_e2e_no_thread_per_client () =
  with_dispatcher ~accept_pool:65 [] (fun port ->
      let first = client_connect port in
      client_send first [ "ping" ];
      Alcotest.(check string) "first client answered" pong (input_line first.cic);
      let before = threads () in
      let clients = List.init 64 (fun _ -> client_connect port) in
      List.iter (fun c -> client_send c [ "ping" ]) clients;
      List.iter
        (fun c -> Alcotest.(check string) "every client answered" pong (input_line c.cic))
        clients;
      (* Threads that earlier tests left behind may still be exiting, so
         the count may fall; it must not grow. *)
      let after = threads () in
      if after > before then
        Alcotest.failf "64 more clients took the process from %d to %d threads" before after;
      List.iter client_close (first :: clients))

(* A [metrics] fan-out stalled by a black-hole shard — its listener
   completes handshakes in the backlog but never accepts, so the RPC
   waits out [probe_timeout] — runs off the loop: another client's
   [ping] is answered at once, and the stalled client still gets its
   replies in request order. *)
let test_e2e_metrics_stall_is_off_loop () =
  let hole = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind hole (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen hole 8;
  let hport = match Unix.getsockname hole with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let config =
    { Dispatcher.default_config with probe_timeout = 0.3; probe_interval = 30.0 }
  in
  Fun.protect
    ~finally:(fun () -> Unix.close hole)
    (fun () ->
      with_dispatcher ~config ~accept_pool:2 [ ("127.0.0.1", hport) ] (fun port ->
          let a = client_connect port and b = client_connect port in
          let t0 = Unix.gettimeofday () in
          client_send a [ "metrics"; "ping" ];
          Unix.sleepf 0.02;
          client_send b [ "ping" ];
          Alcotest.(check string) "other client's ping" pong (input_line b.cic);
          let ping_s = Unix.gettimeofday () -. t0 in
          if ping_s >= 0.25 then
            Alcotest.failf "ping waited %.3f s behind the stalled metrics fan-out" ping_s;
          let metrics = input_line a.cic in
          let metrics_s = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "metrics waited out the black hole" true (metrics_s >= 0.25);
          Alcotest.(check bool) "black-hole shard reported down" true
            (let needle = Printf.sprintf "cluster_shard_up{shard=\"127.0.0.1:%d\"} 0" hport in
             List.mem needle (String.split_on_char ';' metrics));
          Alcotest.(check string) "stalled client's ping after its metrics" pong
            (input_line a.cic);
          List.iter client_close [ a; b ]))

(* A shard's one loop answers nothing while a step runs, so a shard
   stuck in a slow submit is visible to the status checker: a 250-task
   identical-length shop with windows in [0, 200] (seed 29) is proved
   infeasible at once, but its certificate search takes about a second,
   and a 0.2 s probe on another connection fails meanwhile.  Once the
   reply is out the probe passes again. *)
let test_e2e_stuck_step_fails_probe () =
  let g = E2e_prng.Prng.create 29 in
  let shop =
    E2e_model.Recurrence_shop.of_traditional
      (E2e_workload.Feasible_gen.identical_length g ~n:250 ~m:4 ~tau:E2e_rat.Rat.one
         ~window:200)
  in
  let line =
    E2e_serve.Protocol.render_request (E2e_serve.Admission.Submit { shop = "slow"; instance = shop })
  in
  let s = spawn_shard () in
  Fun.protect
    ~finally:(fun () ->
      Wire.shutdown s.sctl;
      Domain.join s.sdomain)
    (fun () ->
      let probe () = Health.probe ~timeout:0.2 ~host:"127.0.0.1" ~port:s.sport () in
      Alcotest.(check bool) "idle shard passes the probe" true (probe ());
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.sport));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      let r = Wire.make_reader fd in
      Alcotest.(check bool) "greeted" true (Wire.read_line r = `Line E2e_serve.Protocol.greeting);
      Wire.write_all fd (line ^ "\n");
      Unix.sleepf 0.05;
      let during = probe () in
      let answered = Wire.read_line r in
      Unix.close fd;
      (match answered with
      | `Line l when String.length l > 9 && String.sub l 0 9 = "rejected " -> ()
      | `Line l -> Alcotest.failf "unexpected reply %s" l
      | _ -> Alcotest.fail "no reply to the slow submit");
      Alcotest.(check bool) "probe fails while the step runs" false during;
      Alcotest.(check bool) "probe passes once the reply is out" true (probe ()))

let suite =
  [
    ("registry: parse_id accepts host:port and rejects junk", `Quick, test_parse_id);
    ("registry: routing is sticky and membership-pure", `Quick, test_routing_sticky);
    ("registry: every shard owns a fair share of shops", `Quick, test_routing_balance);
    ("registry: failover moves only the dead shard's shops", `Quick, test_failover_order);
    ("registry: probe threshold and revival", `Quick, test_probe_threshold);
    ("registry: register/deregister round-trips restore routing", `Quick,
     test_membership_roundtrip);
    ("dispatcher: metrics relabel injects the shard label", `Quick, test_relabel);
    ("cluster: cross-shard pipelining preserves reply order", `Slow,
     test_e2e_sticky_and_order);
    ("cluster: ctl/1 register/deregister round-trips", `Slow, test_e2e_ctl_roundtrip);
    ("cluster: shard kill fails over without losing replies", `Slow,
     test_e2e_failover_on_kill);
    ("cluster: metrics aggregates shard expositions", `Slow, test_e2e_metrics_aggregation);
    ("cluster: multi-lane upstreams keep order and drain on kill", `Slow,
     test_e2e_multi_lane);
    ("cluster: 64 clients start no thread in the dispatcher", `Slow,
     test_e2e_no_thread_per_client);
    ("cluster: a stalled metrics fan-out does not hold other clients", `Slow,
     test_e2e_metrics_stall_is_off_loop);
    ("registry: a probe begun before a down report does not revive", `Quick,
     test_stale_probe_no_revival);
    ("cluster: a shard stuck in a step fails its probe until it answers", `Slow,
     test_e2e_stuck_step_fails_probe);
  ]
