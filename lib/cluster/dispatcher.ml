(* The cluster front end: one listening port, N shard upstreams.

   Clients speak the ordinary [e2e-serve/1] line protocol to the
   dispatcher; every admission request is routed by the deterministic
   hash of its shop name ({!Registry}) and forwarded RAW to the owning
   shard, so validation, admission semantics and error texts are
   byte-identical to a direct shard connection.  Only session-level
   requests (hello/ping/quit), the dispatcher's own [stats]/[metrics]
   and the [ctl/1] control protocol are answered locally.

   Per-connection reply order is preserved under pipelining across
   shards by the same {!Wire} slot machinery the single-shard server
   uses: the client reader pushes one reply slot per request in read
   order, and each slot is filled when its shard's reply arrives (or
   immediately with [error shard-unavailable] when no live shard can
   take the request).

   Each shard gets up to [upstream_conns] persistent pipelined
   upstream connections ({e lanes}), shared by every client.  Each
   lane has a sender thread that coalesces queued request lines into
   single writes and moves their reply callbacks onto the lane's
   in-flight queue before the bytes leave, and a receiver thread that
   pops one callback per reply line — the shard answers each
   connection in request order, so the head of a lane's in-flight
   queue always owns that lane's head reply.  A client connection
   keeps a {e sticky} lane per shard (first use picks round-robin), so
   one client's requests for one shard flow down one lane in FIFO
   order — per-client-connection reply order is preserved at any lane
   count, while different clients spread across lanes.  A hard error
   on any lane fails every queued and in-flight request on {e all} of
   the shard's lanes with [error shard-unavailable] (never a hang),
   reports the shard dead to the registry (instant failover, no probe
   round-trips), and bumps the upstream's epoch so sticky lane picks
   re-balance when later requests lazily reconnect after the status
   checker revives the shard. *)

module Wire = E2e_serve.Wire
module Protocol = E2e_serve.Protocol

let version = "e2e-dispatch/1"
let greeting = version ^ " ready"
let ctl_version = "ctl/1"
let unavailable_reply = "error shard-unavailable"

(* ------------------------------------------------------------------ *)
(* Metrics relabeling: inject a [shard="id"] label into one exposition
   line so per-shard series stay distinguishable after aggregation. *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let relabel ~shard line =
  let lbl = Printf.sprintf "shard=\"%s\"" (escape_label shard) in
  match String.index_opt line ' ' with
  | None -> line (* not an exposition line; pass through untouched *)
  | Some sp -> (
      let name = String.sub line 0 sp in
      let rest = String.sub line sp (String.length line - sp) in
      match String.index_opt name '{' with
      | Some b when b < String.length name - 1 && name.[b + 1] <> '}' ->
          String.sub name 0 (b + 1) ^ lbl ^ ","
          ^ String.sub name (b + 1) (String.length name - b - 1)
          ^ rest
      | Some b ->
          (* empty label set "{}" *)
          String.sub name 0 (b + 1) ^ lbl ^ String.sub name (b + 1) (String.length name - b - 1)
          ^ rest
      | None -> name ^ "{" ^ lbl ^ "}" ^ rest)

(* ------------------------------------------------------------------ *)

type config = {
  fail_threshold : int;  (** Consecutive probe failures before a shard is dead. *)
  probe_interval : float;
  probe_timeout : float;
  vnodes : int;
  upstream_conns : int;  (** Pipelined upstream lanes per shard. *)
}

let default_config =
  { fail_threshold = 3; probe_interval = 1.0; probe_timeout = 1.0;
    vnodes = Registry.default_vnodes; upstream_conns = 1 }

(* One generation of one upstream lane's connection.  [sendq] holds
   (raw line, reply callback) pairs not yet written; [inflight] holds
   the callbacks of written requests awaiting replies, in wire order.
   Both live under the owning upstream's mutex. *)
type gen = {
  gfd : Unix.file_descr;
  glane : int;  (* which lane slot this generation occupies *)
  sendq : (string * (string -> unit)) Queue.t;
  inflight : (string -> unit) Queue.t;
  gkick : Condition.t;  (* sender wakeup: work queued or teardown *)
  mutable gdead : bool;
}

type upstream = {
  uid : string;
  uhost : string;
  uport : int;
  umu : Mutex.t;
  lanes : gen option array;  (* one slot per pipelined upstream lane *)
  mutable epoch : int;
      (* bumped when the shard's lanes are drained: sticky lane picks
         from an older epoch re-balance on their next request *)
  mutable rr : int;  (* round-robin cursor for fresh lane picks *)
}

type t = {
  registry : Registry.t;
  config : config;
  (* counters *)
  smu : Mutex.t;
  mutable routed : int;
  mutable unavailable : int;
  mutable client_read_errors : int;  (* hard read errors on client conns *)
  mutable upstream_read_errors : int;  (* hard read errors on upstream lanes *)
  per_shard : (string, int) Hashtbl.t;  (* shard id -> routed requests *)
  (* upstream table *)
  tmu : Mutex.t;
  upstreams : (string, upstream) Hashtbl.t;
  control : Wire.control;  (* the client listener's shutdown handle *)
}

let create ?(config = default_config) shards =
  if config.upstream_conns < 1 then
    invalid_arg "Dispatcher.create: upstream_conns must be >= 1";
  {
    registry =
      Registry.create ~fail_threshold:config.fail_threshold ~vnodes:config.vnodes shards;
    config;
    smu = Mutex.create ();
    routed = 0;
    unavailable = 0;
    client_read_errors = 0;
    upstream_read_errors = 0;
    per_shard = Hashtbl.create 8;
    tmu = Mutex.create ();
    upstreams = Hashtbl.create 8;
    control = Wire.control ();
  }

let registry t = t.registry

(* ------------------------------------------------------------------ *)
(* Upstream connections. *)

let upstream_for t (e : Registry.entry) =
  Mutex.lock t.tmu;
  let u =
    match Hashtbl.find_opt t.upstreams e.Registry.id with
    | Some u -> u
    | None ->
        let u =
          { uid = e.Registry.id; uhost = e.Registry.host; uport = e.Registry.port;
            umu = Mutex.create ();
            lanes = Array.make (max 1 t.config.upstream_conns) None;
            epoch = 0; rr = 0 }
        in
        Hashtbl.replace t.upstreams e.Registry.id u;
        u
  in
  Mutex.unlock t.tmu;
  u

(* Mark one generation dead under [u.umu] and collect the callbacks it
   strands; the caller shuts the socket and fails them outside the
   lock.  [None] when the generation was already dead (its fd may
   already be closed — and possibly reused — so the caller must not
   touch it again). *)
let kill_gen_locked u g =
  if g.gdead then None
  else begin
    g.gdead <- true;
    (match u.lanes.(g.glane) with
    | Some g' when g' == g -> u.lanes.(g.glane) <- None
    | _ -> ());
    Condition.broadcast g.gkick;
    let acc = ref [] in
    Queue.iter (fun fill -> acc := fill :: !acc) g.inflight;
    Queue.iter (fun (_line, fill) -> acc := fill :: !acc) g.sendq;
    Queue.clear g.inflight;
    Queue.clear g.sendq;
    Some (List.rev !acc)
  end

let fail_fills t fills fds =
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds;
  match fills with
  | [] -> ()
  | fills ->
      Mutex.lock t.smu;
      t.unavailable <- t.unavailable + List.length fills;
      Mutex.unlock t.smu;
      List.iter (fun fill -> fill unavailable_reply) fills

(* Tear a connection generation down exactly once: mark it dead, shut
   the socket (waking a blocked receiver read), and fail every queued
   and in-flight request with a deterministic [error shard-unavailable]
   — a client never hangs on a dead shard.  [report] marks the shard
   dead in the registry (instant failover, no probe round-trips) and
   drains the shard's {e other} lanes too: their requests would only
   hang on the same dead shard, and the epoch bump makes sticky lane
   picks re-balance on reconnect.  [report:false] (dispatcher shutdown,
   deregistration) tears down only the given generation — callers that
   need every lane gone iterate the lane array. *)
let teardown t u g ~report =
  Mutex.lock u.umu;
  let fills = kill_gen_locked u g in
  let first = fills <> None in
  let others =
    if first && report then begin
      u.epoch <- u.epoch + 1;
      u.rr <- 0;
      Array.to_list u.lanes
      |> List.filter_map (fun go ->
             Option.bind go (fun g' ->
                 Option.map (fun fs -> (g', fs)) (kill_gen_locked u g')))
    end
    else []
  in
  Mutex.unlock u.umu;
  if first then begin
    if report then ignore (Registry.report_down t.registry u.uid);
    fail_fills t (Option.value ~default:[] fills) [ g.gfd ];
    List.iter (fun (g', fills') -> fail_fills t fills' [ g'.gfd ]) others
  end

(* Sender: drain the send queue into one coalesced write per wakeup.
   Callbacks move to [inflight] under the mutex BEFORE the write, so
   the receiver can never see a reply whose callback is not queued. *)
let sender_loop t u g =
  let buf = Buffer.create 512 in
  let rec loop () =
    Mutex.lock u.umu;
    while Queue.is_empty g.sendq && not g.gdead do
      Condition.wait g.gkick u.umu
    done;
    if g.gdead then Mutex.unlock u.umu
    else begin
      Buffer.clear buf;
      while not (Queue.is_empty g.sendq) do
        let line, fill = Queue.pop g.sendq in
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        Queue.push fill g.inflight
      done;
      Mutex.unlock u.umu;
      match Wire.write_all g.gfd (Buffer.contents buf) with
      | () -> loop ()
      | exception Unix.Unix_error _ -> teardown t u g ~report:true
    end
  in
  loop ()

(* Receiver: consume the shard's greeting, then pop one in-flight
   callback per reply line.  Owns the fd close (exactly one close per
   generation).  Any read error, unexpected greeting or unsolicited
   reply tears the generation down. *)
let receiver_loop t u g =
  let r = Wire.make_reader g.gfd in
  (match Wire.read_line r with
  | `Line greeting when String.length greeting >= 4 && String.sub greeting 0 4 = "e2e-" ->
      let rec loop () =
        match Wire.read_line r with
        | `Line reply -> (
            Mutex.lock u.umu;
            let fill =
              if g.gdead || Queue.is_empty g.inflight then None
              else Some (Queue.pop g.inflight)
            in
            Mutex.unlock u.umu;
            match fill with
            | Some fill ->
                fill reply;
                loop ()
            | None -> ())
        | `Error _ ->
            (* A reset mid-stream, not the shard closing cleanly:
               account it so liveness debugging can tell the two
               apart. *)
            Mutex.lock t.smu;
            t.upstream_read_errors <- t.upstream_read_errors + 1;
            Mutex.unlock t.smu
        | `Eof | `Too_long -> ()
      in
      loop ()
  | `Error _ ->
      Mutex.lock t.smu;
      t.upstream_read_errors <- t.upstream_read_errors + 1;
      Mutex.unlock t.smu
  | `Line _ | `Eof | `Too_long -> ());
  teardown t u g ~report:true;
  try Unix.close g.gfd with Unix.Unix_error _ -> ()

(* Connect (bounded) and start one lane's sender/receiver.  Called
   with [u.umu] held; a connect failure reports the shard dead so the
   retry loop in [dispatch] immediately routes around it. *)
let ensure_lane_locked t u lane =
  match u.lanes.(lane) with
  | Some g when not g.gdead -> Ok g
  | _ -> (
      match
        Health.connect ~timeout:t.config.probe_timeout ~host:u.uhost ~port:u.uport ()
      with
      | Error e -> Error e
      | Ok fd ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          let g =
            { gfd = fd; glane = lane; sendq = Queue.create (); inflight = Queue.create ();
              gkick = Condition.create (); gdead = false }
          in
          u.lanes.(lane) <- Some g;
          ignore (Thread.create (fun () -> sender_loop t u g) ());
          ignore (Thread.create (fun () -> receiver_loop t u g) ());
          Ok g)

(* [sticky] is the asking client connection's lane memo (shard id ->
   epoch, lane): the first request for a shard picks the next lane
   round-robin and pins it, so one client's requests for one shard
   flow down one lane in FIFO order — per-client reply order needs no
   cross-lane sequencing.  A teardown bumps the epoch, so a stale pin
   re-picks (re-balancing after reconnect). *)
type sticky = (string, int * int) Hashtbl.t

let sticky () : sticky = Hashtbl.create 8

let pick_lane_locked u sticky =
  let n = Array.length u.lanes in
  match Hashtbl.find_opt sticky u.uid with
  | Some (epoch, lane) when epoch = u.epoch && lane < n -> lane
  | _ ->
      let lane = u.rr mod n in
      u.rr <- u.rr + 1;
      Hashtbl.replace sticky u.uid (u.epoch, lane);
      lane

let try_enqueue t ~sticky (e : Registry.entry) line fill =
  let u = upstream_for t e in
  Mutex.lock u.umu;
  let lane = pick_lane_locked u sticky in
  match ensure_lane_locked t u lane with
  | Error _ ->
      Mutex.unlock u.umu;
      ignore (Registry.report_down t.registry u.uid);
      false
  | Ok g ->
      Queue.push (line, fill) g.sendq;
      Condition.signal g.gkick;
      Mutex.unlock u.umu;
      true

let fill_unavailable t fill =
  Mutex.lock t.smu;
  t.unavailable <- t.unavailable + 1;
  Mutex.unlock t.smu;
  fill unavailable_reply

(* Route by shop, forward, retry on connect failure.  Each failed
   attempt marks its shard dead, so the next [Registry.route] walks
   past it; [shards + 1] attempts bound the loop even when everything
   is dying under us. *)
let dispatch t ~sticky ~shop line fill =
  let attempts = (Registry.stats t.registry).Registry.shards + 1 in
  let rec go n =
    if n <= 0 then fill_unavailable t fill
    else
      match Registry.route t.registry shop with
      | None -> fill_unavailable t fill
      | Some e ->
          if try_enqueue t ~sticky e line fill then begin
            Mutex.lock t.smu;
            t.routed <- t.routed + 1;
            Hashtbl.replace t.per_shard e.Registry.id
              (1 + Option.value ~default:0 (Hashtbl.find_opt t.per_shard e.Registry.id));
            Mutex.unlock t.smu
          end
          else go (n - 1)
  in
  go attempts

(* ------------------------------------------------------------------ *)
(* Locally-answered requests. *)

(* Live (connected, not dead) upstream lanes per shard, sorted by id. *)
let live_lanes t =
  Mutex.lock t.tmu;
  let us = Hashtbl.fold (fun _ u acc -> u :: acc) t.upstreams [] in
  Mutex.unlock t.tmu;
  List.map
    (fun u ->
      Mutex.lock u.umu;
      let n =
        Array.fold_left
          (fun acc -> function Some g when not g.gdead -> acc + 1 | _ -> acc)
          0 u.lanes
      in
      Mutex.unlock u.umu;
      (u.uid, n))
    us
  |> List.sort compare

(* Upstream queue depth per shard: requests queued on a lane's send
   queue or in flight awaiting the shard's reply.  A request leaves
   when its reply (or the teardown drain) fills its callback, so a
   non-zero depth is proof the shard owes answers right now. *)
let pending_per_shard t =
  Mutex.lock t.tmu;
  let us = Hashtbl.fold (fun _ u acc -> u :: acc) t.upstreams [] in
  Mutex.unlock t.tmu;
  List.map
    (fun u ->
      Mutex.lock u.umu;
      let n =
        Array.fold_left
          (fun acc -> function
            | Some g when not g.gdead ->
                acc + Queue.length g.sendq + Queue.length g.inflight
            | _ -> acc)
          0 u.lanes
      in
      Mutex.unlock u.umu;
      (u.uid, n))
    us

let stats_line t =
  let r = Registry.stats t.registry in
  Mutex.lock t.smu;
  let routed = t.routed and unavailable = t.unavailable in
  let client_errs = t.client_read_errors and upstream_errs = t.upstream_read_errors in
  Mutex.unlock t.smu;
  Printf.sprintf
    "stats shards=%d live=%d routed=%d failovers=%d deaths=%d revivals=%d unavailable=%d \
     upstream_conns=%d read_errors=%d upstream_read_errors=%d"
    r.Registry.shards r.Registry.live_shards routed r.Registry.failovers r.Registry.deaths
    r.Registry.revivals unavailable t.config.upstream_conns client_errs upstream_errs

type shard_stats = { shard_id : string; shard_routed : int; shard_pending : int }

type stats = {
  routed : int;
  unavailable : int;
  client_read_errors : int;
  upstream_read_errors : int;
  per_shard : shard_stats list;  (** Sorted by shard id. *)
  registry_stats : Registry.stats;
}

let stats t =
  let registry_stats = Registry.stats t.registry in
  let pending = pending_per_shard t in
  Mutex.lock t.smu;
  let routed = t.routed and unavailable = t.unavailable in
  let client_read_errors = t.client_read_errors in
  let upstream_read_errors = t.upstream_read_errors in
  let routed_by_shard = Hashtbl.fold (fun id n acc -> (id, n) :: acc) t.per_shard [] in
  Mutex.unlock t.smu;
  let per_shard =
    List.sort_uniq compare (List.map fst routed_by_shard @ List.map fst pending)
    |> List.map (fun shard_id ->
           {
             shard_id;
             shard_routed = Option.value ~default:0 (List.assoc_opt shard_id routed_by_shard);
             shard_pending = Option.value ~default:0 (List.assoc_opt shard_id pending);
           })
  in
  { routed; unavailable; client_read_errors; upstream_read_errors; per_shard; registry_stats }

(* The aggregated exposition: the dispatcher's own cluster_* series,
   then every live shard's [metrics] reply relabeled with a
   [shard="id"] label (one bounded RPC per shard; an unreachable shard
   contributes only [cluster_shard_up 0]).  Runs synchronously on the
   asking client's reader thread, so its position in that connection's
   reply stream is trivially preserved. *)
let gather_metrics t =
  let out = ref [] in
  let add l = out := l :: !out in
  let r = Registry.stats t.registry in
  add (Printf.sprintf "cluster_shards %d" r.Registry.shards);
  add (Printf.sprintf "cluster_live_shards %d" r.Registry.live_shards);
  add (Printf.sprintf "cluster_failover_routes_total %d" r.Registry.failovers);
  add (Printf.sprintf "cluster_shard_deaths_total %d" r.Registry.deaths);
  add (Printf.sprintf "cluster_shard_revivals_total %d" r.Registry.revivals);
  let s = stats t in
  add (Printf.sprintf "cluster_routed_total %d" s.routed);
  add (Printf.sprintf "cluster_unavailable_replies_total %d" s.unavailable);
  add (Printf.sprintf "cluster_upstream_conns %d" t.config.upstream_conns);
  add (Printf.sprintf "cluster_client_read_errors_total %d" s.client_read_errors);
  add (Printf.sprintf "cluster_upstream_read_errors_total %d" s.upstream_read_errors);
  List.iter
    (fun { shard_id; shard_routed; _ } ->
      add
        (Printf.sprintf "cluster_shard_routed_total{shard=\"%s\"} %d"
           (escape_label shard_id) shard_routed))
    s.per_shard;
  List.iter
    (fun (id, n) ->
      add
        (Printf.sprintf "cluster_upstream_live_lanes{shard=\"%s\"} %d" (escape_label id) n))
    (live_lanes t);
  List.iter
    (fun (id, n) ->
      add
        (Printf.sprintf "cluster_upstream_pending{shard=\"%s\"} %d" (escape_label id) n))
    (List.sort compare (pending_per_shard t));
  List.iter
    (fun (id, state, _fails) ->
      let up n =
        Printf.sprintf "cluster_shard_up{shard=\"%s\"} %d" (escape_label id) n
      in
      match (state, Registry.parse_id id) with
      | Registry.Dead, _ | _, None -> add (up 0)
      | Registry.Live, Some (host, port) -> (
          match Health.rpc ~timeout:t.config.probe_timeout ~host ~port [ "metrics" ] with
          | Ok [ reply ]
            when String.length reply >= 8 && String.sub reply 0 8 = "metrics " ->
              add (up 1);
              String.split_on_char ';'
                (String.sub reply 8 (String.length reply - 8))
              |> List.iter (fun line -> if line <> "" then add (relabel ~shard:id line))
          | Ok _ | Error _ -> add (up 0)))
    (Registry.snapshot t.registry);
  "metrics " ^ String.concat ";" (List.rev !out)

(* Tear down every lane of one upstream without reporting the shard
   dead (it may be perfectly healthy — we are deregistering it or
   shutting down); pending requests get the deterministic unavailable
   error. *)
let teardown_all_lanes t u =
  Mutex.lock u.umu;
  let gens = Array.to_list u.lanes |> List.filter_map Fun.id in
  Mutex.unlock u.umu;
  List.iter (fun g -> teardown t u g ~report:false) gens

(* Tear down and forget a deregistered shard's upstream; pending
   requests get the deterministic unavailable error. *)
let drop_upstream t id =
  Mutex.lock t.tmu;
  let u = Hashtbl.find_opt t.upstreams id in
  Hashtbl.remove t.upstreams id;
  Mutex.unlock t.tmu;
  match u with None -> () | Some u -> teardown_all_lanes t u

let handle_ctl t rest =
  let cmd, arg = Protocol.cut_word rest in
  match cmd with
  | "register" -> (
      match Registry.parse_id arg with
      | None -> Printf.sprintf "error ctl bad shard address %S (want host:port)" arg
      | Some (host, port) ->
          let id = Registry.id_of ~host ~port in
          (match Registry.add t.registry ~host ~port with
          | `Added -> ()
          | `Already ->
              (* A re-registering shard is announcing liveness. *)
              ignore (Registry.note_probe t.registry id ~ok:true));
          Printf.sprintf "ok registered %s shards=%d" id
            (Registry.stats t.registry).Registry.shards)
  | "deregister" -> (
      match Registry.parse_id arg with
      | None -> Printf.sprintf "error ctl bad shard address %S (want host:port)" arg
      | Some (host, port) ->
          let id = Registry.id_of ~host ~port in
          if Registry.remove t.registry id then begin
            drop_upstream t id;
            Printf.sprintf "ok deregistered %s shards=%d" id
              (Registry.stats t.registry).Registry.shards
          end
          else Printf.sprintf "error unknown shard %s" id)
  | "shards" ->
      if arg <> "" then "error ctl shards takes no arguments"
      else
        let parts =
          List.map
            (fun (id, state, _) ->
              Printf.sprintf "%s=%s" id
                (match state with Registry.Live -> "live" | Registry.Dead -> "dead"))
            (Registry.snapshot t.registry)
        in
        "ok shards " ^ (match parts with [] -> "-" | parts -> String.concat "," parts)
  | "" -> "error ctl missing command (want register|deregister|shards)"
  | cmd -> Printf.sprintf "error ctl unknown command %S" cmd

(* ------------------------------------------------------------------ *)
(* The client-facing session. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let pong = "pong " ^ version

(* One client connection's reader: answer session-level requests
   locally, forward everything else raw to the shop's shard.  Reply
   slots are pushed in read order, so the client's reply stream order
   matches its request order no matter which shards (or upstream
   lanes) answer.  [sticky] is this connection's lane memo — the
   connection affinity that keeps its per-shard request flow on one
   upstream lane. *)
let client_loop t conn r =
  let sticky = sticky () in
  let rec loop () =
    match Wire.read_line r with
    | `Eof -> Wire.push_end conn None
    | `Error _ ->
        Mutex.lock t.smu;
        t.client_read_errors <- t.client_read_errors + 1;
        Mutex.unlock t.smu;
        Wire.push_end conn None
    | `Too_long -> Wire.push_end conn (Some "error shop=- request line too long")
    | `Line l ->
        let trimmed = String.trim l in
        if trimmed = "" || trimmed.[0] = '#' then loop ()
        else begin
          let keyword, rest = Protocol.cut_word l in
          match keyword with
          | "hello" -> Wire.push_line conn (Protocol.render_hello ~requested:rest); loop ()
          | "ping" when rest = "" -> Wire.push_line conn pong; loop ()
          | "quit" when rest = "" -> Wire.push_end conn (Some "bye")
          | "stats" when rest = "" -> Wire.push_line conn (stats_line t); loop ()
          | "metrics" when rest = "" -> Wire.push_line conn (gather_metrics t); loop ()
          | k when k = ctl_version -> Wire.push_line conn (handle_ctl t rest); loop ()
          | k when starts_with ~prefix:"ctl/" k ->
              Wire.push_line conn
                (Printf.sprintf "error unsupported control version %s (want %s)" k ctl_version);
              loop ()
          | _ ->
              (* Anything else — including malformed requests — is the
                 shard's to answer, so error texts match a direct
                 connection byte for byte. *)
              let shop, _ = Protocol.cut_word rest in
              let key = if shop = "" then trimmed else shop in
              dispatch t ~sticky ~shop:key l (Wire.push_slot conn);
              loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The listener is {!Wire.serve}; the dispatcher adds the status
   checker for the listener's lifetime and tears its upstreams down
   with it. *)

let shutdown t =
  Wire.shutdown t.control;
  let us =
    Mutex.lock t.tmu;
    let us = Hashtbl.fold (fun _ u acc -> u :: acc) t.upstreams [] in
    Mutex.unlock t.tmu;
    us
  in
  List.iter (fun u -> teardown_all_lanes t u) us

let serve ?host ?max_connections ?accept_pool ?window ?ready ~port t =
  let checker = ref None in
  let ready p =
    Option.iter (fun f -> f p) ready;
    checker :=
      Some
        (Health.start ~interval:t.config.probe_interval ~timeout:t.config.probe_timeout
           t.registry)
  in
  Wire.serve ?host ?max_connections ?accept_pool ?window ~ready ~control:t.control ~greeting
    ~port (client_loop t);
  Option.iter Health.stop !checker;
  (* Make sure upstream threads die with the listener (no-op when
     [shutdown] already ran). *)
  shutdown t
