(** Transports for the admission service: one select loop per process.

    {!serve_tcp}, {!serve_stdio} and {!session} all run the same
    [Unix.select] loop on the calling thread.  It owns the listener and
    every connection (stdin/stdout is one more connection, in on fd 0,
    out on fd 1), reads whatever is ready through the bounded {!Wire}
    framer (so the 1 MiB request-line cap and trailing [\r] stripping
    apply on every transport), parses each line and submits requests to
    their shop's {!Stripes} batcher — same shop, same stripe — then
    steps every non-empty stripe itself until its queue is empty,
    flushing each connection's finished replies after each step — and,
    when a batch's solves run one after another ([jobs = 1]), before
    each solve, so a reply never waits for the solves batched behind it
    ({!Batcher.step_each}) — and writes through {!Wire.obuf}, which
    survives partial writes.  There is no reader, writer or drainer
    thread: [-j 1] serves any number of connections and stripes on one
    thread, and parallel solving comes from [jobs] ({!Batcher.step_each}
    fans a batch's solves out over the pool) and from running several
    shards.

    Replies always come in request order, one line per non-blank
    request.  Batch boundaries never change a reply: admission
    semantics, {!Rtrace} stage attribution and the per-connection reply
    order are exactly the sequential transport's.  Per-connection reply
    streams are byte-identical at every [jobs] value, at every stripe
    count, and under any cross-connection interleaving as long as
    connections use disjoint shop namespaces (an admission decision
    reads only its own shop's committed set, and the stripe map is a
    pure function of the shop name).  A [stats] or [metrics] line first
    steps every stripe until it is empty, so it counts exactly the
    requests read before it — from every connection — on both
    transports; it is still the one timing-dependent reply when several
    connections share the service.

    {b Backpressure.}  A connection with [window] unwritten replies (or
    whose socket takes no more of them) is not read until it drains;
    the other connections are served meanwhile.

    {b A step holds the loop.}  While a batch is being solved nothing
    else is read: a [ping] (including a {!E2e_cluster.Health} probe)
    waits for the step in progress.  A shard stuck in a long solve
    therefore fails its probes, and a cluster marks it dead after the
    registry's fail threshold of consecutive failures.

    Hard read errors (a reset or half-closed peer, as opposed to a clean
    EOF) are counted and surfaced as [read_errors=] in [stats] and
    [serve_transport_read_errors_total] in [metrics].  When request
    tracing is active ({!Rtrace.active}) the loop closes each request's
    render stage as its reply line is rendered. *)

val session :
  ?schedules:bool -> ?window:int -> Stripes.t -> Unix.file_descr -> Unix.file_descr -> unit
(** [session stripes ifd ofd] serves one connection that reads from
    [ifd] and writes to [ofd]: the {!Protocol.greeting}, then one reply
    per request line until end of input, [quit], an oversized request
    line (longer than {!Wire.max_line}: answered with an [error] reply,
    after which nothing more is read — the line was never fully read,
    so there is no safe resynchronisation point) or a hard read error
    (counted first: {!Stripes.note_read_error} and the
    [serve.read_errors] counter).  Returns once every reply is written;
    closes neither fd.  [window] (default 64) bounds unwritten replies
    as on TCP.  The fds are used as they are: a blocking [ofd] blocks
    the loop while it writes, which is harmless with one connection. *)

val serve_stdio : ?schedules:bool -> ?window:int -> Stripes.t -> unit
(** {!session} over stdin and stdout. *)

val serve_tcp :
  ?schedules:bool ->
  ?host:string ->
  ?max_connections:int ->
  ?accept_pool:int ->
  ?window:int ->
  ?ready:(int -> unit) ->
  ?control:Wire.control ->
  port:int ->
  Stripes.t ->
  unit
(** Listen on [host:port] (default host 127.0.0.1; [port = 0] binds an
    ephemeral port, reported through [ready] before the first accept)
    and serve connections from the loop until {!Wire.shutdown} on
    [control], or, with [max_connections], until that many connections
    have been accepted and all of them have ended.  [accept_pool]
    (default 4) caps the connections open at once — the loop stops
    accepting at the cap — and [window] (default 64) is the per-
    connection bound on unwritten replies.  Each connection gets
    [TCP_NODELAY] and the {!Protocol.greeting}.  A shutdown closes the
    listener and resets every live connection (every queued request has
    been answered by then: the loop waits only with every stripe
    empty); a handle already shut down makes [serve_tcp] return right
    after binding, without calling [ready].  Committed state persists
    across connections.

    Robustness: transient accept failures ([EINTR], [ECONNABORTED],
    [EAGAIN]) are retried, resource-pressure failures ([EMFILE] and
    friends) pause accepting for 10 ms, [SIGPIPE] is ignored from the
    first call on ({!Wire.listen}), and a connection whose write fails
    is closed without taking the loop down. *)
