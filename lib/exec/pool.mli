(** Fixed-size domain pool for deterministic fan-out of pure jobs.

    The experiment harness runs Monte Carlo campaigns: hundreds of
    independent trials per plotted point.  [Pool] spreads such jobs over
    a fixed number of OCaml 5 domains while keeping the results — and
    therefore every byte of experiment output — independent of how many
    domains ran them or in which order they were scheduled:

    - jobs are claimed from a shared atomic work index, so the pool is
      work-conserving regardless of per-job cost;
    - results are stored at each job's submission index, so [map] and
      [init] return them in submission order, exactly as a sequential
      [Array.map]/[Array.init] would;
    - every job must be a {e pure function of its input} (in particular
      it must not share a PRNG with other jobs — derive one per job with
      {!E2e_prng.Prng.of_path});
    - [jobs = 1] never spawns a domain: it is exactly the sequential
      loop, which makes `-j 1` a bit-for-bit reference for any `-j N`.

    Exceptions: every job runs to completion even if another job raised;
    after joining, the exception of the {e lowest submission index} is
    re-raised (with its backtrace).  This keeps failure behaviour
    deterministic across domain counts too.

    Telemetry: {!E2e_obs.Obs} counters, gauges and histograms are
    domain-safe (each domain accumulates into its own collector).
    [Domain.join] publishes the workers' collectors, so metrics read
    after a [map]/[init] returns equal the sequential totals. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the runtime's estimate of how
    many domains this machine runs well (usually the core count). *)

val default_jobs : unit -> int
(** Default worker count for CLIs: the [E2E_JOBS] environment variable
    when it parses as a positive integer, capped at
    {!recommended_jobs}; [1] when unset or invalid. *)

val resolve_jobs : int option -> int
(** [resolve_jobs (Some n)] is [n] (an explicit request is honoured even
    past {!recommended_jobs}, e.g. to check determinism with more
    domains than cores); [resolve_jobs None] is {!default_jobs}[ ()].
    @raise Invalid_argument if [n < 1]. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] is [Array.map f items], with the calls spread
    over [min jobs (Array.length items)] domains.  Results are in
    submission order.  [jobs = 1] runs sequentially in the calling
    domain.
    @raise Invalid_argument if [jobs < 1]. *)

val init : jobs:int -> int -> (int -> 'b) -> 'b array
(** [init ~jobs n f] is [Array.init n f] over the pool — the shape of a
    Monte Carlo point: job [k] is trial [k].
    @raise Invalid_argument if [jobs < 1] or [n < 0]. *)

val run : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map], but over a process-wide {e persistent} pool of parked worker
    domains instead of a fresh spawn+join per call — the right choice
    for callers that fan out small batches at high frequency (the serve
    batcher: one [map]-shaped call per batch, where a per-call domain
    spawn would cost more than the batch itself).

    Same contract as {!map}: results in submission order, lowest-index
    exception re-raised, [jobs = 1] (or a single item) runs sequentially
    in the calling domain and is the bit-for-bit reference.  The caller
    works as one of the [jobs], so [jobs = N] occupies [N - 1] worker
    domains.  The pool
    grows lazily to the largest [jobs - 1] seen (capped internally); calls
    are serialised over the one shared pool.  A job that itself calls
    [run] inlines sequentially rather than deadlocking on the workers it
    occupies.  Worker domains are daemons: they park between calls and
    do not block process exit.
    @raise Invalid_argument if [jobs < 1]. *)
