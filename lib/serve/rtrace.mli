(** Per-request trace context for the serve pipeline.

    Every request admitted to the {!Batcher} queue is assigned a
    monotonically increasing request id at ingress.  When tracing is
    {!active} the batcher allocates a trace context per request and
    timestamps the end of each pipeline stage on the {e main} domain, in
    deterministic submission order:

    {v queue  canonicalize  cache  solve  verify  commit  render v}

    [queue] is the enqueue→dequeue wait; each later stage is the time
    since the previous mark.  Requests that skip a phase (a [query]
    never solves) still mark the stage with a ~zero duration, so every
    request's stage durations tile its end-to-end latency exactly.
    When tracing is inactive the batcher threads the shared {!none}
    sentinel instead: no allocation, no clock reads, and reply logs are
    byte-identical with tracing on or off.

    {b Determinism.}  All clock reads happen on the server loop's
    thread in submission order, never from worker-domain solves, so
    under a deterministic {!E2e_obs.Obs.Clock.set_source} the full
    trace is a pure function of the request log — byte-identical at
    every [jobs] value ([make check] enforces this).  With more than
    one stripe the per-request records are still well-formed
    and schema-valid, but cross-request record order (and, with a real
    clock, stage timings) depends on stripe interleaving — the
    byte-identical guarantee is per stripe count.

    {b Outputs.}  {!finish} streams one JSONL record per stage plus a
    closing ["done"] record through the installed {!set_writer}, and
    feeds the [serve.stage.<name>] / [serve.e2e] registry histograms
    when stats are on.  Record schema (see also [doc/index.mld]):

    {v {"trace":"req","id":N,"op":OP,"shop":SHOP,"stage":STAGE,
   "seq":I,"t":T,"dur":D}            (seq 0..6, stage order above)
{"trace":"req",...,"stage":"done","seq":7,"t":T,"dur":E2E,
   "verdict":V} v}

    [t] is seconds since the writer was installed; [dur] the stage
    duration; [verdict] one of [admitted], [rejected], [undecided],
    [info], [dropped], [error]. *)

type t

val stages : string array
(** The seven stage names, in pipeline order. *)

val n_stages : int

val stage_index : string -> int option

val none : t
(** Disabled-path sentinel: marking or finishing it is a no-op. *)

val set_writer : (string -> unit) option -> unit
(** Install (or remove) the JSONL line writer.  Installing also anchors
    the trace time base at the current clock reading. *)

val active : unit -> bool
(** True when a writer is installed or registry stats are on — the
    batcher's one-word test for whether to allocate trace contexts. *)

val start : id:int -> op:string -> shop:string -> t
(** A fresh context whose queue stage starts now.  Call only when
    {!active}; reads the clock once. *)

val mark : t -> int -> unit
(** Close stage [i] (0–5) at the current clock reading.  No-op on
    {!none}. *)

val set_verdict : t -> string -> unit

val finish : t -> unit
(** Close the render stage (the final clock read), write the request's
    JSONL records and feed the registry histograms.  Call exactly once
    per request, after the reply has been rendered.  The JSONL writer
    is serialised internally per request, so servers running in
    several domains of one process (in-process shards) may finish
    traces at once — one request's records
    never interleave with another's (cross-stripe record order is
    arbitrary; the per-id schema is indifferent).  No-op on {!none}. *)

val id : t -> int
val op : t -> string
val shop : t -> string
val verdict : t -> string

(** Parsing and validation of the JSONL trace stream — shared by
    [e2e-trace] and [jsonl_check --trace]. *)
module Schema : sig
  type record = {
    id : int;
    op : string;
    shop : string;
    stage : string;
    seq : int;
    t : float;
    dur : float;
    verdict : string option;  (** Present exactly on ["done"] records. *)
  }

  val of_json : E2e_obs.Json.t -> (record option, string) result
  (** [Ok None] on JSON values that are not request-trace records
      (other telemetry may share the stream); [Error _] on a trace
      record with a missing or ill-typed required field. *)

  type validator

  val validator : unit -> validator

  val feed : validator -> record -> (unit, string) result
  (** Check one record: stages arrive in canonical order per request
      id, durations are [>= 0], timestamps never move backwards within
      a request, and each ["done"] record's end-to-end duration equals
      the sum of its stage durations (within float tolerance). *)

  val completed : validator -> int
  (** Requests whose ["done"] record has been accepted. *)

  val check_closed : validator -> (unit, string) result
  (** [Error _] if any request's trace was truncated before [done]. *)
end
