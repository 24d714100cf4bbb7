(** The cluster front end: one listening port, N shard upstreams, one
    thread.

    Clients speak the ordinary [e2e-serve/1] line protocol to the
    dispatcher.  Every admission request is routed by the
    deterministic hash of its shop name ({!Registry}) and forwarded
    {e raw} to the owning shard — validation, admission semantics and
    error texts are byte-identical to a direct shard connection.
    Answered locally: [hello], [ping] ([pong e2e-dispatch/1]), [quit],
    the dispatcher's own [stats], the aggregated [metrics], and the
    [ctl/1] control protocol:

    {v
    ctl/1 register <host:port>     # add (or revive) a shard
    ctl/1 deregister <host:port>   # remove a shard
    ctl/1 shards                   # ok shards id=live|dead,...
    v}

    One [Unix.select] loop on the thread that calls {!serve} runs the
    whole data path — the listener, every client connection and every
    upstream lane — so a request crosses no thread hand-off in the
    dispatcher; only the [metrics] fan-out RPCs and the status checker
    ({!Health}) run on threads of their own.
    Reply-order contract: per client connection, replies come back in
    request order regardless of which shards answer.
    Each shard upstream may be widened to [upstream_conns] pipelined
    connections ({e lanes}); a client connection keeps a sticky lane
    per shard, so its own requests stay FIFO per shard while distinct
    clients spread across lanes.  A request whose shard cannot be
    reached — no live shard, a failed lane connect, or an upstream
    lane dying mid-flight — is answered [error shard-unavailable],
    never left hanging (a connect refused at once is retried on the
    next live shard first).  A hard upstream error drains {e every}
    lane of that shard and marks it dead immediately, so subsequent
    shop traffic fails over to the next live shard in hash order;
    sticky lane assignments are invalidated (clients re-balance
    round-robin over fresh lanes on reconnect) and the status checker
    revives the shard when it answers probes again. *)

val version : string
(** ["e2e-dispatch/1"]. *)

val greeting : string
(** ["e2e-dispatch/1 ready"]. *)

val ctl_version : string
(** ["ctl/1"]. *)

val unavailable_reply : string
(** ["error shard-unavailable"]. *)

val relabel : shard:string -> string -> string
(** Inject a [shard="id"] label into one exposition line
    ([name value] or [name{l="v"} value]) — how per-shard series stay
    distinguishable in the aggregated [metrics] reply (exposed for
    tests). *)

type config = {
  fail_threshold : int;  (** Consecutive probe failures before a shard is dead. *)
  probe_interval : float;  (** Seconds between status-checker rounds. *)
  probe_timeout : float;  (** Bound on probes, upstream connects, metrics RPCs. *)
  vnodes : int;  (** Ring positions per shard. *)
  upstream_conns : int;  (** Pipelined connections (lanes) per shard upstream. *)
}

val default_config : config
(** [{ fail_threshold = 3; probe_interval = 1.0; probe_timeout = 1.0;
      vnodes = Registry.default_vnodes; upstream_conns = 1 }]. *)

type t

val create : ?config:config -> (string * int) list -> t
(** A dispatcher over the given static [(host, port)] shards (dynamic
    shards join via [ctl/1 register]). *)

val registry : t -> Registry.t

type shard_stats = {
  shard_id : string;
  shard_routed : int;  (** Requests ever forwarded to this shard. *)
  shard_pending : int;
      (** Upstream queue depth right now: requests queued on this
          shard's lanes or in flight awaiting its reply. *)
}

type stats = {
  routed : int;  (** Requests forwarded to shards. *)
  unavailable : int;  (** [error shard-unavailable] replies. *)
  client_read_errors : int;  (** Hard read errors on client connections. *)
  upstream_read_errors : int;  (** Hard read errors on upstream lanes. *)
  per_shard : shard_stats list;  (** Sorted by shard id. *)
  registry_stats : Registry.stats;
}

val stats : t -> stats

val serve :
  ?host:string ->
  ?max_connections:int ->
  ?accept_pool:int ->
  ?window:int ->
  ?ready:(int -> unit) ->
  port:int ->
  t ->
  unit
(** Serve clients on [host:port] (default host 127.0.0.1; [port = 0]
    binds an ephemeral port, reported through [ready]) from the
    calling thread until {!shutdown}.  At most [accept_pool] (default
    4) clients are connected at once — further connections wait in
    the listen backlog; a client with [window] (default 64) unwritten
    replies is not read until some are written; [max_connections]
    bounds the {e total} number of clients accepted, after which
    [serve] returns once the last one has gone.  The status checker
    runs from [ready] until the loop ends, and the upstreams are torn
    down with it (pending requests get [error shard-unavailable]).
    Returns at once, without calling [ready], when {!shutdown} came
    first.  Descriptors are watched with [Unix.select], so every
    client and lane fd must stay below [FD_SETSIZE] (1024). *)

val shutdown : t -> unit
(** Stop serving: wakes the loop, which closes the listener, resets
    every client connection (peers see a closed socket, exactly like a
    process kill) and tears down every upstream (pending requests get
    [error shard-unavailable]).  Registered shards are {e not} marked
    dead.  Idempotent; safe from any thread or domain. *)
