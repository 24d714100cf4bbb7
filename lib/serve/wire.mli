(** Shared socket plumbing for the line-protocol transports.

    One line {!framer} — the blocking {!reader} here and both select
    loops, {!Server}'s and the cluster dispatcher's, run it, so every
    edge applies the same cap, [\r] stripping and end-of-input rule —
    one output buffer ({!obuf}) that survives partial non-blocking
    writes, the connection both loops serve ({!conn}: framer, reply
    slots in request order, output buffer), a listening socket
    ({!listen}), and the {!control} handle that stops a loop from any
    thread by waking it through a self-pipe ({!with_wake}). *)

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
    fd; the server's and the cluster dispatcher's select loops run it
    over non-blocking ones. *)

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

type obuf
(** A connection's unwritten output: reply lines queued in order, and
    how far a non-blocking socket has taken them. *)

val obuf : unit -> obuf
(** An empty output buffer. *)

val ob_pending : obuf -> bool
(** Some queued byte is not yet written. *)

val ob_line : obuf -> string -> unit
(** Queue one line (the terminator is added). *)

val ob_flush : obuf -> Unix.file_descr -> bool
(** Write queued bytes until all are written or the fd would block
    ([EAGAIN]; the rest stays queued, in order, for the next call);
    [EINTR] retries.  [false] on a hard write error.  On a blocking fd
    it returns once everything is written. *)

(** {1 Connections of a select loop} *)

type slot = { mutable reply : string option }
(** One reply, [None] until its answer arrives. *)

type conn = private {
  ifd : Unix.file_descr;
  ofd : Unix.file_descr;  (** [ifd] unless given apart (stdin/stdout). *)
  frame : framer;
  slots : slot Queue.t;  (** Unwritten replies, in request order. *)
  out : obuf;
  mutable reading : bool;  (** The request stream has not ended. *)
  mutable need_input : bool;  (** The framer holds no complete line. *)
  mutable dead : bool;  (** A write failed: nothing more is sent. *)
}
(** One connection of a select loop — the server's or the cluster
    dispatcher's: a framer over its input, one slot per reply in request
    order, and an output buffer.  Replies are written strictly in slot
    order, however the slots fill. *)

val conn : ?ofd:Unix.file_descr -> greeting:string -> Unix.file_descr -> conn
(** [conn ~greeting fd] reads and writes [fd] ([ofd] writes apart),
    with [greeting] queued as its first output line.  Reads go through
    a 64 KiB chunk buffer. *)

val slot : conn -> slot
(** Queue an empty reply slot; fill it with [slot.reply <- Some line]. *)

val reply : conn -> string -> unit
(** Queue an answered reply. *)

val finish : conn -> string option -> unit
(** End the request stream: the final line (if any) is the last reply.
    Idempotent. *)

val room : window:int -> conn -> bool
(** The connection may be read: its stream has not ended, it has fewer
    than [window] unwritten replies, and its fd took all output so
    far. *)

val pump : window:int -> too_long:string -> (string -> unit) -> conn -> bool
(** Hand each complete line in the framer to the handler while
    {!room} holds; [true] when a line was taken.  A line past
    {!max_line} ends the stream with [too_long] as its last reply. *)

val readable :
  on_line:(string -> unit) -> on_error:(unit -> unit) -> conn -> unit
(** The input fd is readable: one read into the framer (call only with
    [need_input] set).  At end of input a partial last line goes to
    [on_line] and the stream ends; a hard read error (a reset, as
    opposed to a clean EOF) calls [on_error] and ends it too. *)

val flush : conn -> unit
(** Move every filled head slot into the output buffer and write what
    the fd takes ({!ob_flush}); a write error marks the connection
    [dead]. *)

val finished : conn -> bool
(** Dead, or its stream ended with every reply written. *)

type control
(** External-shutdown handle for a running select loop
    ({!Server.serve_tcp}): the in-process analogue of killing the
    process.  The cluster harnesses use it to exercise shard failover
    deterministically. *)

val control : unit -> control

val shutdown : control -> unit
(** Stop the loop attached to this handle: it wakes through its
    self-pipe, closes its listener and resets every live connection
    (peers see a closed socket, exactly like a process kill).  A loop
    started on a handle that is already shut down returns as soon as it
    has bound, without calling its [ready] hook.  Idempotent; safe from
    any thread or domain. *)

val stopped : control -> bool
(** {!shutdown} was called. *)

val with_wake : control -> (Unix.file_descr option -> 'a) -> 'a
(** [with_wake c f] makes a non-blocking self-pipe, attaches it to [c]
    and runs [f (Some r)], [r] its read end, which turns readable on
    {!shutdown}; [f None] when [c] is already shut down.  The pipe is
    detached and closed when [f] returns or raises. *)

val drain_pipe : Unix.file_descr -> unit
(** Read a non-blocking pipe empty. *)

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
