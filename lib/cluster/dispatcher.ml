(* The cluster front end: one listening port, N shard upstreams, one
   thread.

   Clients speak the ordinary [e2e-serve/1] line protocol to the
   dispatcher; every admission request is routed by the deterministic
   hash of its shop name ({!Registry}) and forwarded RAW to the owning
   shard, so validation, admission semantics and error texts are
   byte-identical to a direct shard connection.  Only session-level
   requests (hello/ping/quit), the dispatcher's own [stats]/[metrics]
   and the [ctl/1] control protocol are answered locally.

   The whole data path is one [Unix.select] loop on the thread that
   calls {!serve}: it accepts clients, reads their request lines
   through {!Wire}'s framer, forwards them, reads the shards' replies
   and writes each client's replies — no request crosses a thread
   hand-off.  Per-connection reply order is kept by a queue of reply
   slots per client, pushed in read order and written in queue order
   as they fill, from an output buffer that survives partial writes.

   Each shard gets up to [upstream_conns] persistent pipelined
   upstream connections ({e lanes}), shared by every client.  A
   forwarded request appends its line to the lane's output buffer and
   its slot to the lane's FIFO in-flight queue; the requests one
   iteration reads leave in one write per lane, and each reply line
   fills the head slot — the shard answers each connection in request
   order.  A client connection keeps a {e sticky} lane per shard
   (first use picks round-robin), so one client's requests for one
   shard flow down one lane in FIFO order — per-client reply order is
   preserved at any lane count, while different clients spread across
   lanes.  Lane connects are non-blocking: requests queue behind a
   connect in flight, which completes when the fd turns writable and
   fails after [probe_timeout].  A hard error on any lane fails every
   request on {e all} of the shard's lanes with [error
   shard-unavailable] (never a hang), reports the shard dead to the
   registry (instant failover, no probe round-trips), and bumps the
   upstream's epoch so sticky lane picks re-balance when later
   requests lazily reconnect after the status checker revives the
   shard.

   Nothing blocks the loop: the [metrics] fan-out RPCs run on a
   short-lived helper thread that hands its reply back through a
   self-pipe, which also carries {!shutdown}'s wake-up. *)

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

(* ------------------------------------------------------------------ *)
(* Connection state.  Everything below is owned by the loop thread;
   [t.mu] guards it against the two outside readers — {!stats} (any
   thread or domain) and the metrics helper threads, which only push
   onto [done_q]. *)

(* A client's reply slot: filled by a lane reply, a teardown, the loop
   itself (local replies) or a metrics helper; written in queue
   order. *)
type slot = { mutable reply : string option }

(* An output buffer that survives partial non-blocking writes: its
   bytes from [sent] on are still to be written. *)
type obuf = { buf : Buffer.t; mutable sent : int }

let obuf () = { buf = Buffer.create 4096; sent = 0 }
let ob_pending o = Buffer.length o.buf > o.sent

let ob_line o s =
  Buffer.add_string o.buf s;
  Buffer.add_char o.buf '\n'

(* Write until done or the socket would block; [false] on a hard
   write error. *)
let rec ob_flush o fd =
  let len = Buffer.length o.buf - o.sent in
  if len = 0 then begin
    Buffer.clear o.buf;
    o.sent <- 0;
    true
  end
  else
    match Unix.single_write_substring fd (Buffer.sub o.buf o.sent len) 0 len with
    | w ->
        o.sent <- o.sent + w;
        ob_flush o fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ob_flush o fd
    | exception Unix.Unix_error _ -> false

(* Socket reads go through {!Wire}'s framer in chunks this large. *)
let chunk = 65536

(* One connection of one upstream lane.  [inflight] holds the slots of
   requests written to [lout] (sent or not yet sent), in wire order:
   the shard answers a connection in request order, so the head slot
   always owns the next reply line. *)
type lane = {
  lfd : Unix.file_descr;
  lidx : int;  (* which lane slot of its upstream this connection fills *)
  lframe : Wire.framer;
  mutable connect_by : float option;  (* deadline while the connect is in flight *)
  mutable greeted : bool;
  lout : obuf;
  inflight : slot Queue.t;
  mutable ldead : bool;
}

type upstream = {
  uid : string;
  uhost : string;
  uport : int;
  lanes : lane option array;  (* one slot per pipelined upstream lane *)
  mutable epoch : int;
      (* bumped when the shard's lanes are drained: sticky lane picks
         from an older epoch re-balance on their next request *)
  mutable rr : int;  (* round-robin cursor for fresh lane picks *)
}

type client = {
  cfd : Unix.file_descr;
  cframe : Wire.framer;
  slots : slot Queue.t;  (* unwritten replies, in request order *)
  cout : obuf;
  sticky : (string, int * int) Hashtbl.t;
      (* shard id -> (epoch, lane): the lane this client's requests for
         that shard ride *)
  mutable reading : bool;  (* false once the request stream ended *)
  mutable need_input : bool;  (* the framer holds no complete line *)
}

type t = {
  registry : Registry.t;
  config : config;
  mu : Mutex.t;
  mutable routed : int;
  mutable unavailable : int;
  mutable client_read_errors : int;  (* hard read errors on client conns *)
  mutable upstream_read_errors : int;  (* hard read errors on upstream lanes *)
  per_shard : (string, int ref) Hashtbl.t;  (* shard id -> routed requests *)
  upstreams : (string, upstream) Hashtbl.t;
  done_q : (slot * string) Queue.t;  (* metrics replies from helper threads *)
  stop : bool Atomic.t;
  wake_r : Unix.file_descr;  (* self-pipe: shutdown and helper completions *)
  wake_w : Unix.file_descr;
}

let create ?(config = default_config) shards =
  if config.upstream_conns < 1 then
    invalid_arg "Dispatcher.create: upstream_conns must be >= 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    registry =
      Registry.create ~fail_threshold:config.fail_threshold ~vnodes:config.vnodes shards;
    config;
    mu = Mutex.create ();
    routed = 0;
    unavailable = 0;
    client_read_errors = 0;
    upstream_read_errors = 0;
    per_shard = Hashtbl.create 8;
    upstreams = Hashtbl.create 8;
    done_q = Queue.create ();
    stop = Atomic.make false;
    wake_r;
    wake_w;
  }

let registry t = t.registry

let wake t =
  try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error _ -> () (* a full pipe wakes the loop anyway *)

(* ------------------------------------------------------------------ *)
(* Upstream lanes. *)

let fill_unavailable t slot =
  t.unavailable <- t.unavailable + 1;
  slot.reply <- Some unavailable_reply

(* Tear one lane connection down exactly once: close it and fail every
   request it carries with a deterministic [error shard-unavailable] —
   a client never hangs on a dead shard. *)
let kill_lane t u l =
  if not l.ldead then begin
    l.ldead <- true;
    (match u.lanes.(l.lidx) with
    | Some l' when l' == l -> u.lanes.(l.lidx) <- None
    | _ -> ());
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    Queue.iter (fill_unavailable t) l.inflight;
    Queue.clear l.inflight
  end

(* A hard error on one lane: report the shard dead to the registry
   (instant failover, no probe round-trips) and drain its {e other}
   lanes too — their requests would only hang on the same dead shard —
   bumping the epoch so sticky lane picks re-balance on reconnect. *)
let lane_failed t u l =
  if not l.ldead then begin
    kill_lane t u l;
    u.epoch <- u.epoch + 1;
    u.rr <- 0;
    Array.iter (Option.iter (kill_lane t u)) u.lanes;
    ignore (Registry.report_down t.registry u.uid)
  end

(* Tear down every lane of one upstream without reporting the shard
   dead (it may be perfectly healthy — it is being deregistered or the
   dispatcher is shutting down). *)
let kill_lanes t u = Array.iter (Option.iter (kill_lane t u)) u.lanes

let upstream_for t (e : Registry.entry) =
  match Hashtbl.find_opt t.upstreams e.Registry.id with
  | Some u -> u
  | None ->
      let u =
        { uid = e.Registry.id; uhost = e.Registry.host; uport = e.Registry.port;
          lanes = Array.make t.config.upstream_conns None; epoch = 0; rr = 0 }
      in
      Hashtbl.replace t.upstreams e.Registry.id u;
      u

(* The lane connection in slot [idx], started when missing.  A connect
   that cannot even start (refused at once, unresolvable host) is an
   [Error]; one in flight queues requests until it completes. *)
let ensure_lane t u idx =
  match u.lanes.(idx) with
  | Some l when not l.ldead -> Ok l
  | _ -> (
      match Health.connect_start ~host:u.uhost ~port:u.uport with
      | Error e -> Error e
      | Ok (fd, pending) ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          let l =
            { lfd = fd; lidx = idx; lframe = Wire.framer ~size:chunk ();
              connect_by =
                (if pending then Some (Unix.gettimeofday () +. t.config.probe_timeout)
                 else None);
              greeted = false; lout = obuf (); inflight = Queue.create (); ldead = false }
          in
          u.lanes.(idx) <- Some l;
          Ok l)

(* The first request for a shard picks the next lane round-robin and
   pins it in the client's [sticky] memo, so one client's requests for
   one shard flow down one lane in FIFO order — per-client reply order
   needs no cross-lane sequencing.  A drain bumps the epoch, so a stale
   pin re-picks. *)
let pick_lane u sticky =
  let n = Array.length u.lanes in
  match Hashtbl.find_opt sticky u.uid with
  | Some (epoch, lane) when epoch = u.epoch && lane < n -> lane
  | _ ->
      let lane = u.rr mod n in
      u.rr <- u.rr + 1;
      Hashtbl.replace sticky u.uid (u.epoch, lane);
      lane

(* Route by shop and queue the raw line on the shard's lane; its bytes
   leave with the lane's next coalesced write.  A connect that fails to
   start marks its shard dead, so the next [Registry.route] walks past
   it; one attempt per shard plus one bounds the loop even when
   everything is dying. *)
let dispatch t sticky ~shop line slot =
  let rec go left =
    match Registry.route t.registry shop with
    | None -> fill_unavailable t slot
    | Some e -> (
        let u = upstream_for t e in
        match ensure_lane t u (pick_lane u sticky) with
        | Ok l ->
            ob_line l.lout line;
            Queue.push slot l.inflight;
            t.routed <- t.routed + 1;
            (match Hashtbl.find_opt t.per_shard u.uid with
            | Some n -> incr n
            | None -> Hashtbl.replace t.per_shard u.uid (ref 1))
        | Error _ ->
            ignore (Registry.report_down t.registry u.uid);
            let left =
              match left with
              | None -> (Registry.stats t.registry).Registry.shards
              | Some n -> n - 1
            in
            if left <= 0 then fill_unavailable t slot else go (Some left))
  in
  go None

(* Every reply line the lane's chunk buffer holds: the first is the
   shard's greeting, each later one fills the head in-flight slot.  A
   bad greeting or an unsolicited reply is a hard lane error. *)
let rec take_replies t u l =
  if not l.ldead then
    match Wire.next_line l.lframe with
    | `Need_input -> ()
    | `Too_long -> lane_failed t u l
    | `Line line -> deliver t u l line; take_replies t u l

and deliver t u l line =
  if not l.greeted then
    if String.length line >= 4 && String.sub line 0 4 = "e2e-" then l.greeted <- true
    else lane_failed t u l
  else
    match Queue.take_opt l.inflight with
    | Some slot -> slot.reply <- Some line
    | None -> lane_failed t u l

let lane_readable t u l =
  match Wire.refill l.lframe l.lfd with
  | 0 ->
      (* The shard closed: a partial last line is its last reply. *)
      Option.iter (deliver t u l) (Wire.at_eof l.lframe);
      lane_failed t u l
  | _ -> take_replies t u l
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
      (* A reset mid-stream, not the shard closing cleanly: account it
         so liveness debugging can tell the two apart. *)
      t.upstream_read_errors <- t.upstream_read_errors + 1;
      lane_failed t u l

(* The connect finished (the fd turned writable) or ran out of time;
   a failed connect fails the requests queued behind it. *)
let lane_connected t u l =
  match Unix.getsockopt_error l.lfd with
  | None -> l.connect_by <- None
  | Some _ -> lane_failed t u l
  | exception Unix.Unix_error _ -> lane_failed t u l

let lane_flush t u l =
  if (not l.ldead) && l.connect_by = None && ob_pending l.lout
     && not (ob_flush l.lout l.lfd)
  then lane_failed t u l

(* ------------------------------------------------------------------ *)
(* Locally-answered requests.  The [_locked] readers run with [t.mu]
   held: inside the loop, or under {!stats}. *)

let fold_upstreams t f =
  Hashtbl.fold (fun id u acc -> (id, Array.fold_left f 0 u.lanes) :: acc) t.upstreams []
  |> List.sort compare

(* Live (connected, not dead) upstream lanes per shard, sorted by id. *)
let live_lanes_locked t =
  fold_upstreams t (fun acc -> function
    | Some l when (not l.ldead) && l.connect_by = None -> acc + 1
    | _ -> acc)

(* Upstream queue depth per shard: requests queued on a lane or in
   flight awaiting the shard's reply.  A request leaves when its reply
   (or a drain) fills its slot, so a non-zero depth is proof the shard
   owes answers right now. *)
let pending_locked t =
  fold_upstreams t (fun acc -> function
    | Some l when not l.ldead -> acc + Queue.length l.inflight
    | _ -> acc)

let stats_line_locked t =
  let r = Registry.stats t.registry in
  Printf.sprintf
    "stats shards=%d live=%d routed=%d failovers=%d deaths=%d revivals=%d unavailable=%d \
     upstream_conns=%d read_errors=%d upstream_read_errors=%d"
    r.Registry.shards r.Registry.live_shards t.routed r.Registry.failovers r.Registry.deaths
    r.Registry.revivals t.unavailable t.config.upstream_conns t.client_read_errors
    t.upstream_read_errors

type shard_stats = { shard_id : string; shard_routed : int; shard_pending : int }

type stats = {
  routed : int;
  unavailable : int;
  client_read_errors : int;
  upstream_read_errors : int;
  per_shard : shard_stats list;  (** Sorted by shard id. *)
  registry_stats : Registry.stats;
}

let stats_locked t =
  let pending = pending_locked t in
  let routed_by_shard = Hashtbl.fold (fun id n acc -> (id, !n) :: acc) t.per_shard [] in
  let per_shard =
    List.sort_uniq compare (List.map fst routed_by_shard @ List.map fst pending)
    |> List.map (fun shard_id ->
           {
             shard_id;
             shard_routed = Option.value ~default:0 (List.assoc_opt shard_id routed_by_shard);
             shard_pending = Option.value ~default:0 (List.assoc_opt shard_id pending);
           })
  in
  { routed = t.routed; unavailable = t.unavailable;
    client_read_errors = t.client_read_errors;
    upstream_read_errors = t.upstream_read_errors; per_shard;
    registry_stats = Registry.stats t.registry }

let stats t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () -> stats_locked t)

(* The dispatcher's own cluster_* series, taken when the [metrics]
   request is read, so their position in the client's reply stream is
   the request's. *)
let own_metrics_locked t =
  let r = Registry.stats t.registry in
  let s = stats_locked t in
  List.concat
    [
      [
        Printf.sprintf "cluster_shards %d" r.Registry.shards;
        Printf.sprintf "cluster_live_shards %d" r.Registry.live_shards;
        Printf.sprintf "cluster_failover_routes_total %d" r.Registry.failovers;
        Printf.sprintf "cluster_shard_deaths_total %d" r.Registry.deaths;
        Printf.sprintf "cluster_shard_revivals_total %d" r.Registry.revivals;
        Printf.sprintf "cluster_routed_total %d" s.routed;
        Printf.sprintf "cluster_unavailable_replies_total %d" s.unavailable;
        Printf.sprintf "cluster_upstream_conns %d" t.config.upstream_conns;
        Printf.sprintf "cluster_client_read_errors_total %d" s.client_read_errors;
        Printf.sprintf "cluster_upstream_read_errors_total %d" s.upstream_read_errors;
      ];
      List.map
        (fun { shard_id; shard_routed; _ } ->
          Printf.sprintf "cluster_shard_routed_total{shard=\"%s\"} %d" (escape_label shard_id)
            shard_routed)
        s.per_shard;
      List.map
        (fun (id, n) ->
          Printf.sprintf "cluster_upstream_live_lanes{shard=\"%s\"} %d" (escape_label id) n)
        (live_lanes_locked t);
      List.map
        (fun (id, n) ->
          Printf.sprintf "cluster_upstream_pending{shard=\"%s\"} %d" (escape_label id) n)
        (pending_locked t);
    ]

(* The aggregated exposition: [own] (the dispatcher's series), then
   every live shard's [metrics] reply relabeled with a [shard="id"]
   label — one bounded RPC per shard; an unreachable shard contributes
   only [cluster_shard_up 0].  Runs on a helper thread, never on the
   loop. *)
let gather_metrics t own =
  let shard_series (id, state, _fails) =
    let up n = Printf.sprintf "cluster_shard_up{shard=\"%s\"} %d" (escape_label id) n in
    match (state, Registry.parse_id id) with
    | Registry.Dead, _ | _, None -> [ up 0 ]
    | Registry.Live, Some (host, port) -> (
        match Health.rpc ~timeout:t.config.probe_timeout ~host ~port [ "metrics" ] with
        | Ok [ reply ] when String.length reply >= 8 && String.sub reply 0 8 = "metrics " ->
            up 1
            :: (String.split_on_char ';' (String.sub reply 8 (String.length reply - 8))
               |> List.filter_map (fun line ->
                      if line = "" then None else Some (relabel ~shard:id line)))
        | Ok _ | Error _ -> [ up 0 ])
  in
  "metrics "
  ^ String.concat ";" (own @ List.concat_map shard_series (Registry.snapshot t.registry))

(* Tear down and forget a deregistered shard's upstream; pending
   requests get the deterministic unavailable error. *)
let drop_upstream t id =
  Option.iter (kill_lanes t) (Hashtbl.find_opt t.upstreams id);
  Hashtbl.remove t.upstreams id

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
(* The client side. *)

let pong = "pong " ^ version

let is_space = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false

let rec skip_space l i = if i < String.length l && is_space l.[i] then skip_space l (i + 1) else i
let rec skip_word l i = if i < String.length l && not (is_space l.[i]) then skip_word l (i + 1) else i

(* [l.[i .. j)] equals [lit]. *)
let word_is l i j lit =
  j - i = String.length lit
  &&
  let rec eq k = k >= j - i || (l.[i + k] = lit.[k] && eq (k + 1)) in
  eq 0

let push_slot c =
  let slot = { reply = None } in
  Queue.push slot c.slots;
  slot

let reply c line = Queue.push { reply = Some line } c.slots

(* End the request stream: the farewell (if any) is the last reply,
   and the connection closes once every reply before it is written. *)
let finish c last =
  if c.reading then begin
    c.reading <- false;
    Option.iter (reply c) last
  end

let start_metrics t c =
  let slot = push_slot c in
  let own = own_metrics_locked t in
  let run () =
    let line = gather_metrics t own in
    Mutex.lock t.mu;
    Queue.push (slot, line) t.done_q;
    Mutex.unlock t.mu;
    wake t
  in
  match Thread.create run () with
  | _ -> ()
  | exception _ -> slot.reply <- Some (gather_metrics t own)

(* One request line: answer session-level requests locally, forward
   everything else raw to the shop's shard — including malformed
   requests, so error texts match a direct connection byte for byte.
   The keyword and the shop are found by index on the raw line; only
   the shop name is copied. *)
let handle_line t c l =
  let n = String.length l in
  let i0 = skip_space l 0 in
  if i0 < n && l.[i0] <> '#' then begin
    let k1 = skip_word l i0 in
    let i1 = skip_space l k1 in
    let no_rest = i1 >= n in
    let kw = word_is l i0 k1 in
    let rest () = String.trim (String.sub l k1 (n - k1)) in
    if kw "hello" then reply c (Protocol.render_hello ~requested:(rest ()))
    else if no_rest && kw "ping" then reply c pong
    else if no_rest && kw "quit" then finish c (Some "bye")
    else if no_rest && kw "stats" then reply c (stats_line_locked t)
    else if no_rest && kw "metrics" then start_metrics t c
    else if kw ctl_version then reply c (handle_ctl t (rest ()))
    else if k1 - i0 >= 4 && word_is l i0 (i0 + 4) "ctl/" then
      reply c
        (Printf.sprintf "error unsupported control version %s (want %s)"
           (String.sub l i0 (k1 - i0)) ctl_version)
    else
      let shop =
        if no_rest then String.sub l i0 (k1 - i0) else String.sub l i1 (skip_word l i1 - i1)
      in
      dispatch t c.sticky ~shop l (push_slot c)
  end

(* The client may send more: [window] unwritten replies stop its
   reading, and so does a socket that cannot take our replies. *)
let room ~window c = c.reading && Queue.length c.slots < window && not (ob_pending c.cout)

(* Take request lines from the client's framer while it has room;
   [true] when a line was taken. *)
let rec pump t ~window c =
  room ~window c
  &&
  match Wire.next_line c.cframe with
  | `Need_input ->
      c.need_input <- true;
      false
  | `Too_long ->
      finish c (Some "error shop=- request line too long");
      true
  | `Line l ->
      handle_line t c l;
      ignore (pump t ~window c);
      true

let client_readable t c =
  match Wire.refill c.cframe c.cfd with
  | 0 ->
      Option.iter (handle_line t c) (Wire.at_eof c.cframe);
      finish c None
  | _ -> c.need_input <- false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
      t.client_read_errors <- t.client_read_errors + 1;
      finish c None

(* Move every ready head reply into the output buffer and write it;
   take more requests while that frees window room.  [false] when the
   client is gone (write error) or done (stream ended, all written). *)
let rec service t ~window c =
  let rec move () =
    match Queue.peek_opt c.slots with
    | Some { reply = Some line } ->
        ignore (Queue.pop c.slots);
        ob_line c.cout line;
        move ()
    | _ -> ()
  in
  move ();
  if ob_pending c.cout && not (ob_flush c.cout c.cfd) then false
  else if pump t ~window c then service t ~window c
  else c.reading || (not (Queue.is_empty c.slots)) || ob_pending c.cout

(* ------------------------------------------------------------------ *)
(* The loop.

   One thread runs [select] over the listener, the self-pipe, every
   client and every upstream lane.  An iteration handles the ready
   fds with [t.mu] held — accepts, helper completions, lane replies
   and connect completions, client reads — then services every client
   (ready replies written, more requests taken while the window has
   room) and flushes every lane: the requests that one iteration read
   leave in one write per lane.  Readiness handlers are looked up in
   the lists built for this [select], so a descriptor closed and
   reused within an iteration is never mistaken for its successor. *)

let shutdown t =
  Atomic.set t.stop true;
  wake t

let serve ?(host = "127.0.0.1") ?max_connections ?(accept_pool = 4) ?(window = 64) ?ready
    ~port t =
  let accept_pool = max 1 accept_pool and window = max 1 window in
  let sock = Wire.listen ~host ~port in
  Unix.set_nonblock sock;
  let clients = ref [] and live = ref 0 and accepted = ref 0 in
  let accept_pause = ref 0. in
  let quota_left () = match max_connections with None -> true | Some m -> !accepted < m in
  let accept_clients () =
    let rec go () =
      if !live < accept_pool && quota_left () then
        match Unix.accept ~cloexec:true sock with
        | fd, _ ->
            Unix.set_nonblock fd;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
            let c =
              { cfd = fd; cframe = Wire.framer ~size:chunk (); slots = Queue.create ();
                cout = obuf (); sticky = Hashtbl.create 8; reading = true;
                need_input = true }
            in
            ob_line c.cout greeting;
            clients := c :: !clients;
            incr live;
            incr accepted;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (e, _, _) when Wire.retriable e -> go ()
        | exception Unix.Unix_error _ ->
            (* Resource pressure (EMFILE and friends): back off and
               keep serving rather than dying. *)
            accept_pause := Unix.gettimeofday () +. 0.01
    in
    go ()
  in
  let drain_wake () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read t.wake_r b 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ();
    Queue.iter (fun (slot, line) -> slot.reply <- Some line) t.done_q;
    Queue.clear t.done_q
  in
  let all_lanes () =
    Hashtbl.fold
      (fun _ u acc ->
        Array.fold_left
          (fun acc -> function Some l when not l.ldead -> (u, l) :: acc | _ -> acc)
          acc u.lanes)
      t.upstreams []
  in
  let close_client c = try Unix.close c.cfd with Unix.Unix_error _ -> () in
  let step () =
    let now = Unix.gettimeofday () in
    let lanes = all_lanes () in
    let rd = ref [ (t.wake_r, drain_wake) ] and wr = ref [] in
    let timeout = ref (-1.) in
    let until at =
      if !timeout < 0. || at -. now < !timeout then timeout := Float.max 0. (at -. now)
    in
    if !live < accept_pool && quota_left () then
      if now >= !accept_pause then rd := (sock, accept_clients) :: !rd else until !accept_pause;
    List.iter
      (fun c ->
        if c.need_input && room ~window c then rd := (c.cfd, fun () -> client_readable t c) :: !rd;
        if ob_pending c.cout then wr := (c.cfd, ignore) :: !wr)
      !clients;
    List.iter
      (fun (u, l) ->
        match l.connect_by with
        | Some at ->
            wr := (l.lfd, fun () -> if not l.ldead then lane_connected t u l) :: !wr;
            until at
        | None ->
            rd := (l.lfd, fun () -> if not l.ldead then lane_readable t u l) :: !rd;
            if ob_pending l.lout then wr := (l.lfd, ignore) :: !wr)
      lanes;
    let r, w, _ =
      try Unix.select (List.map fst !rd) (List.map fst !wr) [] !timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        List.iter (fun fd -> (List.assq fd !wr) ()) w;
        List.iter (fun fd -> (List.assq fd !rd) ()) r;
        let now = Unix.gettimeofday () in
        List.iter
          (fun (u, l) ->
            match l.connect_by with
            | Some at when at <= now && not l.ldead -> lane_failed t u l
            | _ -> ())
          lanes;
        clients :=
          List.filter
            (fun c ->
              service t ~window c
              || begin
                close_client c;
                decr live;
                false
              end)
            !clients;
        List.iter (fun (u, l) -> lane_flush t u l) (all_lanes ()))
  in
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Mutex.lock t.mu;
    List.iter
      (fun c ->
        (try Unix.shutdown c.cfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        close_client c)
      !clients;
    clients := [];
    Hashtbl.iter (fun _ u -> kill_lanes t u) t.upstreams;
    Mutex.unlock t.mu;
    (* A later [serve] on the same dispatcher returns at once. *)
    Atomic.set t.stop true
  in
  Fun.protect ~finally (fun () ->
      if not (Atomic.get t.stop) then begin
        Option.iter (fun f -> f (Wire.bound_port sock ~port)) ready;
        let checker =
          Health.start ~interval:t.config.probe_interval ~timeout:t.config.probe_timeout
            t.registry
        in
        Fun.protect
          ~finally:(fun () -> Health.stop checker)
          (fun () ->
            while not (Atomic.get t.stop || ((not (quota_left ())) && !clients = [])) do
              step ()
            done)
      end)
