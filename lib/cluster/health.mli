(** Status checking: bounded shard probes and the liveness loop.

    A probe is one short-lived protocol session against a shard's
    serving port — connect (bounded by [timeout]), greeting, [ping],
    [pong] — exactly what a client would experience.  The checker
    thread probes every registered shard each [interval] and feeds
    outcomes to {!Registry.note_probe}, so a shard is marked dead
    after the registry's fail-threshold consecutive failures and
    revived by its first successful probe.

    {b A busy shard is a slow shard.}  An [e2e-serve] shard answers
    [ping] from the same select loop that steps its batches
    ({!E2e_serve.Server}), so a probe waits for the step in progress.
    A step longer than the probe's [timeout] fails the probe; a shard
    stuck that long through the fail threshold of consecutive probes
    (3 by default, one each [interval]) is marked dead and its shops
    fail over to the next live shard for new requests, while the
    requests already on its upstream lanes are still answered when the
    step ends.  Its first successful probe afterwards revives it, and
    its shops route back to it. *)

val connect_start :
  host:string -> port:int -> (Unix.file_descr * bool, string) result
(** Start a TCP connect without blocking.  The socket comes back
    non-blocking, paired with [true] while the handshake is still in
    flight: the fd turns writable when it completes, and
    [Unix.getsockopt_error] then tells success from failure.  [Error]
    is an unresolvable host or an immediate refusal.  The
    dispatcher's select loop opens its upstream lanes this way. *)

val rpc :
  ?timeout:float ->
  host:string ->
  port:int ->
  string list ->
  (string list, string) result
(** One bounded session: connect, consume the greeting (must start
    with ["e2e-"]), send each request line and read its reply line,
    send [quit], close.  Every read and write is bounded by [timeout]
    (default 1s); any timeout or short read fails the call.  Used by
    the prober ([ping]), the dispatcher's metrics aggregation and the
    shard-side registration hook. *)

val probe : ?timeout:float -> host:string -> port:int -> unit -> bool
(** [rpc ["ping"]], true iff the reply is a [pong]. *)

type checker

val start :
  ?interval:float ->
  ?timeout:float ->
  ?on_event:(string -> [ `Died | `Revived ] -> unit) ->
  Registry.t ->
  checker
(** Spawn the checker thread: probe every shard in the registry each
    [interval] (default 1s) seconds and record outcomes.  [on_event]
    observes state transitions (for logging). *)

val stop : checker -> unit
(** Stop and join the checker thread (prompt: the loop naps in short
    slices).  Idempotent. *)
