(** Tracing, counters and structured event telemetry for the scheduling
    stack.

    Every solver, simulator and experiment in this repository can emit
    {e spans} (timed, nestable phases), {e metrics} (named counters,
    gauges and histograms) and {e structured events} (a name plus typed
    fields).  By default nothing is recorded: no sink is installed, the
    metric registry is off, and every instrumentation call reduces to one
    mutable-bool read — instrumentation never changes what a solver
    computes (the test suite asserts bit-identical schedules with
    telemetry on and off).

    Telemetry becomes visible by installing a {!Sink.t}:
    - {!Sink.jsonl} — one self-describing JSON object per line, for
      machine consumption;
    - {!Sink.chrome} — the Chrome [trace_event] array format, loadable in
      Perfetto / [chrome://tracing], rendering a solver run or pipeline
      simulation as a timeline;
    - {!Sink.logs} — human-readable lines through the [Logs] library;
    - {!Sink.memory} — an in-process buffer for tests;
    - {!Sink.tee} — fan out to several of the above.

    Metrics are enabled independently with {!set_stats} (the CLIs'
    [--stats] and [--metrics] flags) and read back with {!counters},
    {!metrics_json} or {!pp_metrics}.

    In hot loops, guard the construction of fields on {!enabled}:
    {[ if Obs.enabled () then Obs.event "edf.dispatch" ~fields:[ ... ] ]}
    so the disabled path allocates nothing.

    {b Domain and thread safety.}  Instrumentation calls may run
    concurrently from several domains (the parallel experiment engine,
    {!E2e_exec.Pool}) and from several systhreads of one domain (the
    TCP listener's reader threads).  Counters, gauges and histograms
    accumulate into per-domain collectors; an update takes its
    collector's mutex, which only the owning domain's threads and the
    readers contend for, and only while telemetry is on — the disabled
    path is one bool read.  The read-back functions ({!counters},
    {!counter_value}, {!metrics_json}, ...) merge across collectors,
    each under its mutex, so totals read after a pool join equal the
    sequential totals and a read racing live updates sees each
    collector whole.  The sink path is serialised by a mutex.
    Span-nesting depth is domain-local, so spans assume one spanning
    thread per domain.  {!install}, {!uninstall}, {!set_stats} and
    {!reset_metrics} are management operations: call them when no
    worker domain is concurrently instrumenting (between experiment
    points), not from inside a parallel job. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type field = string * value

type kind =
  | Span_begin
  | Span_end of float  (** Wall-clock duration of the span, in seconds. *)
  | Instant
  | Counter of float  (** Value of the metric {e after} the update. *)

type event = {
  ts : float;  (** Seconds since the sink was installed (monotonic). *)
  name : string;
  kind : kind;
  depth : int;  (** Span-nesting depth when the event was emitted. *)
  fields : field list;
}

val field_json : field list -> Json.t
(** The fields as a JSON object (exposed for sinks and tests). *)

(** {1 Sinks} *)

module Sink : sig
  type t = { emit : event -> unit; close : unit -> unit }

  val null : t
  (** Accepts and discards everything. *)

  val memory : unit -> t * (unit -> event list)
  (** An in-process buffer and a function returning the events emitted so
      far, oldest first.  For tests. *)

  val tee : t list -> t
  (** Forward every event to each sink, close them all on close. *)

  val logs : ?level:Logs.level -> unit -> t
  (** Human-readable telemetry through {!Logs} (source
      ["e2e_sched.obs"], default level [Debug]).  Output appears once the
      application installs a [Logs] reporter. *)

  val jsonl : out_channel -> t
  (** One JSON object per event per line:
      [{"ts":s,"type":"span_begin"|"span_end"|"event"|"counter",
        "name":n,"depth":d,...}] with ["dur"] on span ends, ["value"] on
      counters and ["fields"] when any were attached.  [close] flushes
      and closes the channel. *)

  val chrome : out_channel -> t
  (** Chrome [trace_event] JSON (an array of phase [B]/[E]/[i]/[C]
      records with microsecond timestamps), understood by Perfetto and
      [chrome://tracing].  [close] terminates the array, flushes and
      closes the channel. *)
end

val install : Sink.t -> unit
(** Install [sink] (replacing any previous one, which is closed) and
    restart the trace clock at 0. *)

val uninstall : unit -> unit
(** Close and remove the current sink, if any. *)

val enabled : unit -> bool
(** True when a sink is installed or metrics are on — the one-word test
    call sites use to skip building fields. *)

val set_stats : bool -> unit
(** Turn the metric registry on or off.  Turning it on does not clear
    previously accumulated values; use {!reset_metrics}. *)

val stats_enabled : unit -> bool

(** {1 Spans and events} *)

val span : ?fields:field list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a timed span: a [Span_begin] event
    before, a [Span_end] (with the elapsed wall-clock duration) after,
    even when [f] raises.  Nesting is tracked in {!event.depth}.  When
    no sink is installed this is exactly [f ()] — in particular a
    stats-only configuration ({!set_stats}[ true], no sink) never reads
    the clock from spans, so worker-domain solves stay clock-free and
    deterministic traces are a pure function of the main domain's
    instrumentation order. *)

val event : ?fields:field list -> string -> unit
(** Emit an [Instant] structured event to the sink, if one is installed. *)

(** {1 Metrics} *)

val incr : ?by:int -> string -> unit
(** Bump a named counter (default [by:1]).  Counters also reach the
    sink as [Counter] events, so Chrome traces grow counter tracks.
    Under several domains each domain bumps its own collector (the
    emitted running value is the domain's own tally); {!counters} and
    {!counter_value} return the merged total. *)

val gauge : string -> float -> unit
(** Set a named gauge to its latest value. *)

val observe : string -> float -> unit
(** Add an observation to a named histogram.  Histograms are backed by
    the mergeable {!Quantile} sketch (default relative-error bound), so
    besides the count/sum/min/max summary they answer p50/p95/p99
    through {!sketches}, {!metrics_json} and {!exposition}. *)

type histogram = { count : int; sum : float; min : float; max : float }

val counter_value : string -> int
(** Current value of a counter, 0 if never bumped. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val gauges : unit -> (string * float) list

val histograms : unit -> (string * histogram) list
(** Count/sum/min/max summaries of every histogram, merged across
    domains, sorted by name. *)

val sketches : unit -> (string * Quantile.t) list
(** The full quantile sketches behind {!histograms}, merged across the
    per-domain recorders into fresh sketches (the recorders are not
    disturbed), sorted by name. *)

val reset_metrics : unit -> unit
(** Zero every counter, gauge and histogram. *)

val metrics_json : unit -> Json.t
(** [{"counters":{...},"gauges":{...},"histograms":{name:
    {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p95":..,
    "p99":..}}}] — the payload of the experiment drivers' [--metrics]
    files. *)

val pp_metrics : Format.formatter -> unit -> unit
(** Human-readable metric dump (the CLIs' [--stats] output).  Prints a
    placeholder line when nothing was recorded. *)

(** {1 Text exposition}

    A Prometheus-style rendering of the registry: one
    [name[{label="v",...}] value] line per sample, sorted, so the output
    is a deterministic function of the registry contents.  Metric names
    may carry inline labels — [observe "lat{shop=s1}" v] renders as
    [lat{shop="s1"} ...] — and [.]/[-] in bare names become [_].
    Counters gain a [_total] suffix; each histogram renders three
    [{quantile="0.5"|"0.95"|"0.99"}] sample lines plus [_count], [_sum],
    [_min] and [_max].  Values print through {!Json} number formatting
    (integers without a decimal point). *)

val exposition_line : ?labels:(string * string) list -> string -> float -> string
(** One exposition line (no trailing newline).  [labels] are appended
    after any labels inlined in [name]. *)

val exposition_lines : unit -> string list
(** Every registry sample as exposition lines, sorted. *)

val exposition : unit -> string
(** {!exposition_lines} joined with (and terminated by) newlines; [""]
    when the registry is empty. *)

(** {1 Clock} *)

module Clock : sig
  val now : unit -> float
  (** Current time in seconds, from the installed source, clamped to be
      non-decreasing across calls. *)

  val set_source : (unit -> float) -> unit
  (** Replace the time source (tests install a hand-cranked clock). *)

  val use_wall_clock : unit -> unit
  (** Restore the default source ([Unix.gettimeofday]). *)
end

(** {1 Host} *)

val host : unit -> Json.t
(** The machine and build a benchmark record was measured on:
    [{"nproc": n, "ocaml": version, "commit": c}], where [nproc] is
    [Domain.recommended_domain_count ()] and [c] is the output of
    [git describe --always --dirty] in the working directory, or
    ["unknown"] when git fails.  Every [BENCH_*] record embeds it. *)
