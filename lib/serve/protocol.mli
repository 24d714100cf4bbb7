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
    same but restricted to [task] directives.  Inside a payload, [;] (or
    a newline) ends a directive, [#] comments to the next [;], and words
    are separated by space, tab, carriage return or form feed.

    {b Literals.}  A time is one of
    {v
    [+-]DIGITS                 integer            7, -3, +12
    [+-]DIGITS.DIGITS          decimal            2.75, -0.5
    [-].DIGITS                 decimal            .5, -.25
    [+-]DIGITS/DIGITS          exact fraction     11/4, -3/8
    v}
    with decimal digits only (no radix prefixes, underscores or
    exponents, and no sign on a denominator or after the point).  Each
    literal is read in one pass, its digits accumulated into ints as
    they arrive, and must stay within three bounds — the ones
    [E2e_model.Grid]'s overflow proof cites:
    - at most 18 significant digits in its numerator (a decimal's
      digits on both sides of the point count together), so the
      numerator stays below 10^18;
    - a denominator of at most 10^9, i.e. at most 9 decimal places;
    - a magnitude below 10^12.

    {b Typed errors.}  A malformed literal is refused as
    [error shop=- line N: Rat.of_decimal_string: "TEXT"] (the file
    reader's message; [N] counts [;]-separated directives from 1), and
    a well-formed literal past a bound as
    [error shop=- line N: literal "TEXT" out of range: LIMIT] with
    [LIMIT] one of [more than 18 digits], [denominator past 10^9] or
    [magnitude 10^12 or more] (a decimal is checked for magnitude, then
    places, then digits; a fraction for its denominator, then digits,
    then magnitude).  The first error from the left is the one
    reported.  Then the shop's times must fit its integer
    time grid ({!E2e_model.Grid.fit}): a [submit] whose instance does not
    is refused at parse time as [error shop=- out of range: LIMIT], an
    [add] whose merged candidate does not by the admission as
    [error shop=<shop> out of range: LIMIT], with [LIMIT] one of
    [time grid past 2^61-1] (L, the lcm of the denominators, a time
    scaled by it, or the sum P of the stages' longest times) or
    [single-machine bound past 2^61-1] (B* = 4 (R + P) + (n+1) P, R the
    largest scaled release or deadline).  Every other payload error has
    the file reader's message ({!E2e_model.Instance_io.parse}).  None of
    these ends the session.

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
    session).  A [submit] or [add] payload is read by one scanner that
    walks the line by index: no copy of the line, no word lists or
    substrings, each literal's digits straight into ints with its
    bounds checked as they arrive, and the task arrays built as it goes.
    On every payload within the literal grammar it gives the
    instance, or the error message, that {!E2e_model.Instance_io.parse}
    gives on the payload with [;] as newline, bar the typed
    [out of range] refusals above. *)

val render_request : Admission.request -> string
(** One request line, no terminator ([parse_request] round-trips it) —
    used by the load generator's TCP mode and by test fixtures. *)

val render_reply : ?schedules:bool -> Batcher.outcome -> string
(** One reply line, no terminator.  [schedules] (default [true])
    controls whether [admitted] replies carry the full [schedule=]
    field — load generators turn it off to keep reply parsing cheap.
    An admitted reply's head and schedule rows are written into scratch
    bytes its domain keeps between replies
    ({!E2e_schedule.Schedule.write_csv}: digits straight into the bytes)
    and copied out once at their exact length: no per-reply buffer is
    sized, grown or discarded.  Safe from any thread or domain. *)

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
    field: {!E2e_schedule.Schedule.write_csv} with [;] between rows, the
    text {!render_reply} writes after the reply head (exposed for
    tests). *)
