(** Transports for the admission service.

    {!session} runs the framed line protocol ({!Protocol}) over a raw
    input fd and an output channel; {!serve_stdio} binds it to
    stdin/stdout and {!serve_tcp} to the shared {!Wire.serve} listener
    with a concurrent reader per connection.  Both transports serve a
    {!Stripes.t} (one stripe on stdio), share one read path — the
    bounded {!Wire} line reader — so the 1 MiB request-line cap and
    trailing [\r] stripping apply identically, and count hard read
    errors the same way.

    Channel sessions are {e pipelined}: up to [chunk] request lines are
    read before replies are written, so a replayed request log flows
    through the batcher in real batches.  Replies always come in
    request order, one line per non-blank request.  With a fixed chunk
    size the reply stream is a deterministic function of the request
    stream — the stdio smoke test in [make check] compares it
    byte-for-byte across worker-domain counts.

    The TCP transport serves up to [accept_pool] connections
    simultaneously, each pipelining up to [window] outstanding replies
    over bounded per-connection read/write buffers.  Every connection's
    reader and writer are systhreads of the listener's one I/O domain,
    so a server runs one domain for I/O plus one per drainer, whatever
    the connection count.  Requests route by
    shop into a {!Stripes} batcher — same shop, same stripe — and one
    drainer domain per stripe steps its batcher as soon as a request is
    queued and routes replies back.  A drainer never waits for a batch
    to fill; it releases the stripe's lock while a batch's solves run,
    so a batch is what the readers queued meanwhile, capped by the
    batch size.  Batch boundaries never change a reply: admission
    semantics, {!Rtrace} stage attribution and the per-connection reply
    order are exactly the sequential transport's.
    Per-connection reply streams are byte-identical at every [jobs]
    value, at every stripe count, and under any cross-connection
    interleaving as long as connections use disjoint shop namespaces
    (an admission decision reads only its own shop's committed set,
    and the stripe map is a pure function of the shop name);
    [stats]/[metrics] replies describe the shared live service and are
    the one timing-dependent exception.

    When request tracing is active ({!Rtrace.active}) the transport
    closes each request's render stage as its reply line is rendered,
    in reply order, completing the per-request JSONL trace. *)

val session :
  ?schedules:bool -> ?chunk:int -> Stripes.t -> Unix.file_descr -> out_channel -> unit
(** Serve one session: write {!Protocol.greeting}, then read request
    lines (through the bounded {!Wire} reader) until end-of-stream or
    [quit].  [chunk] (default: the stripes' batch size) is the
    pipelining depth — how many lines are read before the pending
    requests are drained and their replies written.  Interactive
    channel transports use [chunk = 1] so every request line is
    answered before the next is read.  An oversized request line
    (longer than {!Wire.max_line}) is answered with an [error] reply
    and ends the session — the line was never fully read, so there is
    no safe resynchronisation point.  A hard read error ends the
    session too; it is counted first ({!Stripes.note_read_error} and
    the [serve.read_errors] counter), so a [stats] or [metrics] line
    read in the same chunk already reports it. *)

val serve_stdio : ?schedules:bool -> Stripes.t -> unit
(** {!session} over stdin/stdout. *)

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
(** {!Wire.serve} with the {!Protocol.greeting} and this transport's
    reader threads in the calling domain, plus one drainer domain per
    stripe of the given
    {!Stripes.t} stepping that stripe's batcher ([Stripes.create
    ~stripes:1] is the single-drainer server).  The listener options —
    [host], [max_connections], [accept_pool] (default 4), [window]
    (default 64), [ready], and [control] for an external
    {!Wire.shutdown} — mean exactly what they mean there; requests
    already queued in a batcher are still answered before their
    connections tear down.  Committed state persists across
    connections.  Hard read errors (a reset or half-closed peer, as
    opposed to a clean EOF) are counted and surfaced as
    [read_errors=] in [stats] and [serve_transport_read_errors_total]
    in [metrics]. *)
