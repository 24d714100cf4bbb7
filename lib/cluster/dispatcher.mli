(** The cluster front end: one listening port, N shard upstreams.

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

    Reply-order contract: per client connection, replies come back in
    request order regardless of which shards answer (the same
    {!E2e_serve.Wire} listener and slot machinery as the single-shard
    server).
    Each shard upstream may be widened to [upstream_conns] pipelined
    connections ({e lanes}); a client connection keeps a sticky lane
    per shard, so its own requests stay FIFO per shard while distinct
    clients spread across lanes.  A request whose shard cannot be
    reached — no live shard, connect failure, or an upstream lane
    dying mid-flight — is answered [error shard-unavailable], never
    left hanging.  A hard upstream error drains {e every} lane of that
    shard and marks it dead immediately, so subsequent shop traffic
    fails over to the next live shard in hash order; sticky lane
    assignments are invalidated (clients re-balance round-robin over
    fresh lanes on reconnect) and the status checker ({!Health})
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

type sticky
(** One client connection's lane memo: which upstream lane of each
    shard its requests ride.  Pinning a lane keeps a client's
    per-shard request flow FIFO at any [upstream_conns]; a shard
    teardown invalidates the memo so the next request re-picks a lane
    round-robin (re-balancing after reconnect). *)

val sticky : unit -> sticky
(** A fresh (empty) lane memo — one per client connection. *)

val dispatch : t -> sticky:sticky -> shop:string -> string -> (string -> unit) -> unit
(** [dispatch t ~sticky ~shop line fill] routes [line] to the live
    shard owning [shop], down the [sticky] memo's lane for that shard,
    and calls [fill] exactly once with the reply line (or
    [error shard-unavailable]).  Exposed for in-process tests; the
    TCP session uses it per request line. *)

val gather_metrics : t -> string
(** The aggregated [metrics] reply: the dispatcher's own [cluster_*]
    series, then every live shard's exposition relabeled with
    [shard="id"] ([cluster_shard_up] marks reachability). *)

val serve :
  ?host:string ->
  ?max_connections:int ->
  ?accept_pool:int ->
  ?window:int ->
  ?ready:(int -> unit) ->
  port:int ->
  t ->
  unit
(** {!E2e_serve.Wire.serve} with the dispatcher's {!greeting} and
    client reader: the same listener, options and teardown as a shard
    ([accept_pool] default 4, [window] default 64, [max_connections]
    bounding total accepted connections).  The status checker runs
    from [ready] until the listener returns, and the upstreams are
    torn down with it.  Returns after {!shutdown} — at once, without
    calling [ready], when {!shutdown} came first. *)

val shutdown : t -> unit
(** Stop serving: {!E2e_serve.Wire.shutdown} on the client listener
    (wakes blocked accepts, resets client connections), then tear down
    every upstream (pending requests get [error shard-unavailable]).
    Registered shards are {e not} marked dead.  Idempotent; safe from
    any thread. *)
