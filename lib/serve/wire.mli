(** Shared socket plumbing for the line-protocol transports.

    One line {!framer} — the blocking {!reader} here and the cluster
    dispatcher's select loop both run it, so both edges apply the same
    cap, [\r] stripping and end-of-input rule — a listening socket
    ({!listen}), and {!serve}, the threaded TCP listener that
    {!Server.serve_tcp} is a thin caller of.  {!serve} owns the whole
    accept/teardown policy: socket setup and [SIGPIPE], the [ready] hook, the accept-pool threads with
    the connection quota and accept retry rules, the {!control} handle,
    and each connection's reply machinery: an ordered queue of reply
    {e slots}, a counting semaphore ({e window}) bounding how far the
    handler may run ahead of the writer, and a writer thread that
    batches every consecutive ready reply into one [write] call
    (writev-style coalescing — under pipelining a drained batch of
    replies costs one syscall, not one per line).  Replies are written
    strictly in push order, and an unfilled slot blocks the writer
    until it is filled. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on [EINTR].
    @raise Unix.Unix_error on a real write error. *)

val resolve_host : string -> Unix.inet_addr
(** Resolve a dotted quad ([127.0.0.1]) or a hostname ([localhost])
    to an IPv4 address.
    @raise Failure when the name does not resolve. *)

val max_line : int
(** Request-line length cap (1 MiB): an oversized line is a protocol
    error, not an unbounded allocation. *)

type framer
(** Line framing over a chunk buffer that its owner refills: the
    {!max_line} cap (exact, not chunk-granular), [\r] stripping and
    the partial-line-at-EOF rule.  {!read_line} runs it over a blocking
    fd; the cluster dispatcher's select loop runs it over non-blocking
    ones. *)

val framer : ?size:int -> unit -> framer
(** An empty framer with a [size]-byte chunk buffer (default 4096). *)

val next_line : framer -> [ `Line of string | `Need_input | `Too_long ]
(** The next complete line in the buffer (terminator stripped,
    trailing [\r] removed), or [`Need_input] once every buffered byte
    is consumed — only then may {!refill} run.  A line longer than
    {!max_line} is [`Too_long], and stays so: nothing is consumed.
    When a whole line sits inside the chunk buffer it is built with a
    single copy. *)

val refill : framer -> Unix.file_descr -> int
(** One [Unix.read] into the chunk buffer; [0] is end of input.
    @raise Unix.Unix_error as [Unix.read] does. *)

val at_eof : framer -> string option
(** At end of input: the partial final line, if any (returned as a
    line, like [input_line]). *)

type reader
(** A framer over a blocking fd. *)

val make_reader : Unix.file_descr -> reader

val read_line :
  reader -> [ `Line of string | `Eof | `Too_long | `Error of Unix.error ]
(** Next line, per {!next_line} and {!at_eof}.  A clean EOF is
    [`Eof]; a hard read error (reset, half-closed socket, …) is
    [`Error] so transports can account for it separately from orderly
    shutdown.  [EINTR] retries internally. *)

type conn
(** One connection's reply queue, as seen by its handler. *)

val push_line : conn -> string -> unit
(** Acquire one window slot and queue an already-rendered reply. *)

val push_slot : conn -> (string -> unit)
(** [push_slot conn] acquires one window slot and queues an empty reply
    slot; the returned function fills it (exactly once, from any thread
    or domain) and wakes the writer.  Replies behind the slot wait for
    it, so a connection's reply order is its push order whichever
    thread answers first. *)

val push_end : conn -> string option -> unit
(** Queue the final line (if any) and end the connection: the writer
    flushes everything before it, then exits.  A handler returns right
    after pushing it. *)

type control
(** External-shutdown handle for a running {!serve}: the in-process
    analogue of killing the process.  The cluster harnesses use it to
    exercise shard failover deterministically. *)

val control : unit -> control

val shutdown : control -> unit
(** Stop the listener attached to this handle: wakes blocked accepts
    by shutting the listening socket down and resets every live
    connection (peers see a closed socket, exactly like a process
    kill).  A {!serve} given a handle that is already shut down
    returns as soon as it has bound, without calling [ready].
    Idempotent; safe from any thread. *)

val listen : host:string -> port:int -> Unix.file_descr
(** A bound, listening TCP socket on [host:port] (backlog 64,
    [SO_REUSEADDR]).  Ignores [SIGPIPE] from the first call on, for
    good: a vanished peer surfaces as a write error on its own
    connection.  @raise Unix.Unix_error when binding fails. *)

val bound_port : Unix.file_descr -> port:int -> int
(** The port a {!listen} socket is bound to ([port] when it cannot be
    read back) — the ephemeral port when [port = 0]. *)

val retriable : Unix.error -> bool
(** Transient [accept] failures ([EINTR], [ECONNABORTED], [EAGAIN]):
    retry at once. *)

val serve :
  ?host:string ->
  ?max_connections:int ->
  ?accept_pool:int ->
  ?window:int ->
  ?ready:(int -> unit) ->
  ?control:control ->
  greeting:string ->
  port:int ->
  (conn -> reader -> unit) ->
  unit
(** [serve ~greeting ~port handler] listens on [host:port] (default
    host 127.0.0.1; [port = 0] binds an ephemeral port, reported
    through [ready] once connections are accepted) and serves
    connections with [accept_pool] (default 4) systhreads in the
    calling domain, each owning one live connection at a time: the
    listener spawns no domain, so the pool size is bounded by file
    descriptors and thread stacks, not by the runtime's domain cap.
    Per connection: [TCP_NODELAY], the [greeting] line, a writer
    thread over a [window] (default 64) of buffered replies, then
    [handler conn reader] in the accept thread; the handler ends the
    connection with {!push_end} (an
    exception counts as [push_end conn None]).  Teardown joins the
    writer before closing the socket, so every buffered reply —
    including a farewell line — is flushed.  [max_connections] bounds
    the {e total} number of connections accepted across the pool,
    after which [serve] returns; omitted, it serves until {!shutdown}.

    Robustness: transient accept failures ([EINTR], [ECONNABORTED],
    [EAGAIN]) are retried, resource-pressure failures back off and
    retry, [SIGPIPE] is ignored from the first call on and never
    restored (a vanished peer surfaces as a write error on its own
    connection, also for threads that outlive the listener),
    and a connection whose setup or handler fails is closed without
    taking the listener down. *)
