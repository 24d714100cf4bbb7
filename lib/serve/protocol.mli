(** The framed line protocol of the admission service.

    One request per line, one reply line per request, over any byte
    stream (stdin/stdout or a TCP connection).  The protocol is
    versioned: the server greets with {!greeting} ([e2e-serve/1 ready])
    and a client may verify compatibility with an explicit handshake.

    Request grammar ([#] starts a comment, blank lines are ignored):

    {v
    hello e2e-serve/1            # optional version handshake
    submit <shop> <instance>     # propose a task set for a new shop
    add <shop> <tasks>           # add tasks to an existing shop
    query <shop>                 # committed size of a shop
    drop <shop>                  # release a shop's commitments
    stats                        # cache/queue/verdict counters
    metrics                      # full text exposition (see below)
    ping                         # liveness probe (cluster health checks)
    quit                         # close the session
    v}

    [<shop>] is a name matching [[A-Za-z0-9_.-]+].  [<instance>] is the
    {!E2e_model.Instance_io} text format with [;] standing for newline,
    e.g. [visit 1 2 ; task 0 10 1 1 ; task 0 8 2 2]; [<tasks>] is the
    same but restricted to [task] directives.  Numbers are decimals or
    exact fractions ([11/4]).

    Reply grammar (one line, first word is the reply tag):

    {v
    ok e2e-serve/1
    admitted shop=S tasks=N algo=A makespan=Q [schedule=CSV]
    rejected shop=S tasks=N certificate=C
    undecided shop=S tasks=N reason=R
    info shop=S tasks=N | info shop=S unknown
    dropped shop=S existed=B
    overloaded
    error shop=S MESSAGE | error MESSAGE
    stats KEY=VALUE ...
    metrics LINE;LINE;...
    pong e2e-serve/1
    bye
    v}

    [schedule=CSV] is {!E2e_schedule.Schedule.to_csv} with [;] for
    newline and no trailing separator
    ([task,stage,processor,start,finish;0,0,1,0,1;...]) — parseable back
    into exact rationals.  The [metrics] reply is the
    Prometheus-style text exposition ({!E2e_obs.Obs.exposition}) with
    [;] standing for newline: live batcher samples (queue depth,
    committed shops/tasks, per-shop verdict counts, cache hit/miss,
    backpressure rejections, budget exhaustions) followed by the [Obs]
    registry's counters, gauges and per-stage latency histograms when
    stats are on. *)

val version : string
(** ["e2e-serve/1"]. *)

val greeting : string
(** The banner the server sends on session start:
    ["e2e-serve/1 ready"]. *)

type item =
  | Hello of string  (** Requested protocol version, to match {!version}. *)
  | Request of Admission.request
  | Stats
  | Metrics
  | Ping
      (** Liveness probe; answered [pong e2e-serve/1] without touching
          the batcher — the cluster status checker's heartbeat. *)
  | Quit
  | Blank  (** Empty or comment-only line: no reply is sent. *)

val cut_word : string -> string * string
(** First whitespace-delimited word of a trimmed line and the trimmed
    remainder — the protocol's tokenizer, exposed so the cluster
    dispatcher can extract the routing keyword and shop name without
    parsing (or validating) the rest of the request. *)

val parse_request : string -> (item, string) result
(** Parse one request line.  [Error] carries a human-readable message
    (the server wraps it in an [error] reply rather than dropping the
    session). *)

val render_request : Admission.request -> string
(** One request line, no terminator ([parse_request] round-trips it) —
    used by the load generator's TCP mode and by test fixtures. *)

val render_reply : ?schedules:bool -> Batcher.outcome -> string
(** One reply line, no terminator.  [schedules] (default [true])
    controls whether [admitted] replies carry the full [schedule=]
    field — load generators turn it off to keep reply parsing cheap.
    An admitted reply's head and schedule rows are written into a
    scratch buffer its domain keeps between replies and copied out once
    at their exact length: no per-reply buffer is sized, grown or
    discarded.  Safe from any thread or domain. *)

val render_hello : requested:string -> string
(** [ok e2e-serve/1] when [requested] matches {!version}, an [error]
    line otherwise. *)

val render_stats : Stripes.t -> string
(** The [stats] reply: queue depth, committed shops/tasks and cache
    counters summed over the stripes, then [read_errors=] (hard
    transport read errors, as distinct from clean EOFs —
    {!Stripes.read_errors}). *)

val render_metrics : Stripes.t -> string
(** The [metrics] reply: [;]-framed exposition lines — the live
    {!Stripes.service_stats} samples summed over stripes, the drainer
    stripe count ([serve_stripes]) and
    [serve_transport_read_errors_total], followed by
    {!E2e_obs.Obs.exposition_lines} (the latter empty unless stats are
    on).  Live and registry sample names never collide.
    Deterministic: a function of the stripes' state and registry
    contents only. *)

val render_schedule : Buffer.t -> E2e_schedule.Schedule.t -> unit
(** Appends the [;]-framed CSV of an [admitted] reply's [schedule=]
    field: {!E2e_schedule.Schedule.add_csv} with [;] between rows, so
    {!render_reply} writes the rows into the same buffer as the reply
    head (exposed for tests). *)
