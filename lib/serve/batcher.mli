(** Request batching, fan-out and backpressure for the admission engine.

    The batcher sits between a transport and {!Admission}: requests are
    queued FIFO into a {e bounded} queue and processed in batches whose
    solves fan out over the {!E2e_exec.Pool} worker domains.

    {b Fairness and determinism.}  A batch is always a prefix of the
    queue: requests are taken strictly FIFO until the batch is full or
    the next request names a flow shop already in the batch (two
    requests on the same shop are order-dependent, so the second waits
    for the next batch — requests on distinct shops are independent by
    construction, since an admission decision reads only its own shop's
    committed set).  Each batch runs in three phases: precondition
    checks, canonicalization and cache lookups sequentially in
    submission order; cache misses and every [Add] solved in parallel
    ({!E2e_exec.Pool.map} preserves submission order and every solve is
    a pure function of its candidate), so an [Add]'s solve is timed in
    the solve stage; then relabelling + checker verification
    ({!Admission.verify_decision}), cache insertion, state commits and
    reply emission sequentially in submission order again.  Only
    [Submit]s use the cache: phase 1 asks {!Admission.cache_for}, and
    phase 3 inserts exactly the misses phase 1 looked up, so an [Add]
    is never looked up or inserted and growing shops cannot fill the
    cache with one-off entries.  Cache keys are forced in phase 1 only,
    never on a worker domain.  Replies therefore depend only on the
    request log and the configuration — the same log yields a
    byte-identical reply log at any [jobs] value.

    {b Exception boundary.}  Prepare, the solve handed to the pool, and
    relabel + verify each run under {!Admission.guard}.  A request that
    raises (today [Rat.Overflow] on magnitudes the parser admits) is
    answered {!Admission.internal_error}, counted in
    [internal_errors], and left uncommitted; the rest of the batch, and
    later batches, proceed.

    {b Telemetry.}  Every queued request gets a monotonically
    increasing id at ingress.  When {!Rtrace.active} the batcher
    allocates a per-request trace context and timestamps every pipeline
    stage (queue wait, canonicalize, cache, solve, verify, commit) on
    the main domain in submission order; the transport closes the
    render stage via {!Rtrace.finish}.  With tracing off the shared
    {!Rtrace.none} sentinel is threaded instead — no allocation, no
    clock reads, identical replies.  Independent of the registry, the
    batcher keeps always-on {!service_stats} (the live half of the
    [metrics] protocol command).

    {b Backpressure.}  [submit] on a full queue answers [`Overloaded]
    immediately: the request is refused loudly, never silently dropped
    and never blocked on.  {b Cost bounding.}  The per-request
    [budget] is the deterministic analogue of a per-request timeout:
    it caps solver work in portfolio strategies rather than wall-clock
    seconds, so an overloaded service degrades to fast [Undecided]
    answers instead of nondeterministic ones.

    Registry telemetry: counters [serve.requests], [serve.overloaded],
    [serve.batches] (plus the {!Admission} verdict counters); histograms
    [serve.batch_size], [serve.stage.<name>], [serve.e2e]; span
    [serve.batch]. *)

type t

type config = {
  queue_capacity : int;  (** Pending-request bound; above it [submit] refuses. *)
  batch : int;  (** Maximum requests per batch. *)
  budget : Admission.budget;  (** Per-request deterministic solve budget. *)
  jobs : int;  (** Worker domains each batch's solves fan out over. *)
  cache_capacity : int;  (** Canonical solver cache entries; [0] disables. *)
}

val default_config : config
(** [{ queue_capacity = 1024; batch = 16; budget = Unbounded; jobs = 1;
      cache_capacity = 4096 }] — the cache is sized to cover the
    working set of a loadgen-scale request stream (a few thousand
    distinct canonical keys); see the in-process points at capacities
    128, 512 and 4096 in [BENCH_serve.json]. *)

val create : ?config:config -> ?id_offset:int -> ?id_stride:int -> unit -> t
(** A fresh batcher over an empty {!Admission.empty} engine.
    [id_offset]/[id_stride] (defaults [0]/[1]) partition the ingress
    request-id sequence: the batcher hands out ids
    [id_offset + 1, id_offset + 1 + id_stride, …].  The striped server
    ({!Stripes}) gives stripe [k] of [n] offset [k] and stride [n], so
    request ids stay unique across stripes and per-id trace-schema
    invariants keep holding at any stripe count.
    @raise Invalid_argument if [queue_capacity < 1], [batch < 1],
    [jobs < 1], [id_stride < 1] or [id_offset] outside
    [\[0, id_stride)]. *)

val shop_of : Admission.request -> string
(** The flow shop a request addresses — the striping key: requests on
    the same shop are order-dependent and must stay on one stripe. *)

val config : t -> config
val engine : t -> Admission.t
(** Current committed state (between batches). *)

val cache_stats : t -> Cache.stats option
(** [None] when the cache is disabled. *)

val keyer_stats : t -> Cache.Keyer.stats
(** How often the structural pre-key skipped the render-and-digest step
    of canonicalization (the keyer is always on — it costs one sort the
    batcher performs anyway). *)

val pending : t -> int

val last_id : t -> int
(** The most recent request id handed out at ingress ([0] initially).
    Ids are assigned whether or not tracing is active, so a request
    keeps its id when tracing is toggled. *)

type service_stats = {
  submitted : int;  (** Every [submit] call, queued or refused. *)
  rejected_backpressure : int;  (** [submit] calls answered [`Overloaded]. *)
  batches : int;
  batched_requests : int;
  max_batch : int;
  budget_exhausted : int;  (** Replies [Undecided (budget-exhausted)]. *)
  verify_failures : int;  (** Replies downgraded by the verify stage. *)
  internal_errors : int;
      (** Requests that raised and were answered
          {!Admission.internal_error}. *)
  resident : (string * int) list;
      (** Committed tasks per shop, sorted by shop name. *)
  verdicts : (string * (int * int * int)) list;
      (** Per shop [(admitted, rejected, undecided)], sorted by shop. *)
}

val service_stats : t -> service_stats
(** Always-on service accounting, independent of the [Obs] registry —
    the live half of the [metrics] protocol reply. *)

val submit : t -> Admission.request -> [ `Queued | `Overloaded ]

val step : ?release:Mutex.t -> t -> (Admission.request * Rtrace.t * Admission.reply) list
(** Process one batch; [[]] when the queue is empty.  Replies are in
    submission order.  The caller must {!Rtrace.finish} each returned
    context after rendering its reply (a no-op when tracing is off).
    [release] is a mutex the caller holds around every touch of [t]:
    [step] unlocks it while the batch's solves run and locks it again
    before the commits, so other threads can {!submit} (and read the
    stats, which then count the batch but not yet its verdicts) while
    the solves run. *)

val drain : t -> (Admission.request * Rtrace.t * Admission.reply) list
(** [step] until the queue is empty, concatenating the replies. *)

type outcome = Reply of Admission.reply | Overloaded

val pp_outcome : Format.formatter -> outcome -> unit
(** [Reply r] prints via {!Admission.pp_reply}; [Overloaded] prints
    ["overloaded"]. *)

val process_log : t -> Admission.request list -> outcome array
(** Replay a whole request log: submit every request in order (requests
    past queue capacity get [Overloaded]), then drain, finishing every
    trace context.  [outcomes.(i)] answers request [i] — the array the
    determinism and fuzzing harnesses compare byte-for-byte across
    [jobs] and cache settings. *)
