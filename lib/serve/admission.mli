(** Online admission control over committed flow-shop workloads.

    The paper's algorithms decide feasibility of a task set handed to
    them whole; a serving system receives task sets {e continuously} and
    must answer each arrival against the work it has already promised.
    This module is that decision core: a pure, deterministic engine
    holding, per named flow shop, the {e committed} task set — the tasks
    whose deadlines the service has already guaranteed.

    A request either proposes a whole task set for a new shop
    ({!request.Submit}) or adds tasks to an existing one
    ({!request.Add}).  The engine re-solves the committed-plus-candidate
    set through the strongest applicable algorithm
    ({!E2e_core.Solver}, escalating to {!E2e_core.H_portfolio} when
    Algorithm H gives up) and answers:

    - [Admitted]: a checker-verified schedule of the {e whole} committed
      set including the candidate exists; the candidate is committed and
      the new schedule returned.
    - [Rejected]: the candidate is {e not} committed.  When an optimal
      algorithm applied, or a polynomial {!E2e_core.Infeasibility}
      certificate exists, the rejection carries that proof.
    - [Undecided]: the heuristic path failed and no certificate exists
      (the general problem is NP-hard); the candidate is not committed,
      but a retry with a larger {!budget} may succeed.

    The per-request {!budget} bounds solve cost {e deterministically}
    (portfolio strategies attempted, not wall-clock), so identical
    request logs always produce identical replies — the property the
    batcher and the differential fuzzer build on.

    A request whose own computation raises (today [Rat.Overflow] on
    magnitudes the parser admits) is answered [error shop=<s> internal]
    ({!internal_error}) and not committed; [Out_of_memory] propagates.

    Telemetry: counters [serve.requests], [serve.admitted],
    [serve.rejected], [serve.undecided], [serve.request_errors],
    [serve.internal_failures], [serve.solves], [serve.budget_exhausted],
    [serve.verify_failures]. *)

type rat = E2e_rat.Rat.t

type budget =
  | Unbounded  (** Try the full portfolio on heuristic failure. *)
  | Strategies of int
      (** Attempt at most this many portfolio strategies after Algorithm
          H fails; [Strategies 0] answers [Undecided] straight away. *)

type decision =
  | Admitted of { schedule : E2e_schedule.Schedule.t; algo : string }
      (** [algo] names what produced the schedule ([eedf], [algo_a],
          [algo_h], [algo_r], [greedy_edf], [portfolio], [cache]). *)
  | Rejected of { certificate : E2e_core.Infeasibility.certificate option }
      (** [None] when an optimal algorithm proved infeasibility but the
          polynomial certificate generator found no witness window. *)
  | Undecided of { reason : string }

type t
(** Immutable committed state: a map from shop name to its committed
    task set, its canonical form and its hint: the portfolio strategy
    that last admitted it, which the next full solve tries first.  The
    hint is decision-transparent — it is part of the cache key — so
    only the work differs with and without one.  All transitions go
    through {!apply}. *)

type request =
  | Submit of { shop : string; instance : E2e_model.Recurrence_shop.t }
      (** Propose a whole task set for a shop that must not yet exist. *)
  | Add of { shop : string; tasks : (rat * rat * rat array) list }
      (** Propose [(release, deadline, proc_times)] tasks for an
          existing shop; stage counts must match its visit sequence. *)
  | Query of { shop : string }
  | Drop of { shop : string }  (** Release the shop's commitments. *)

type reply =
  | Decided of { shop : string; n_tasks : int; decision : decision }
      (** [n_tasks]: size of the candidate set the decision is about. *)
  | Queried of { shop : string; n_tasks : int option }
      (** [None] when the shop does not exist. *)
  | Dropped of { shop : string; existed : bool }
  | Request_error of { shop : string; message : string }

val empty : t
val shops : t -> (string * E2e_model.Recurrence_shop.t) list
(** Committed shops, sorted by name. *)

val n_committed : t -> int
(** Total committed tasks across all shops. *)

val relabel :
  Cache.canonical -> E2e_model.Recurrence_shop.t -> decision -> decision
(** Map a decision computed on [canonical.shop] back to the candidate's
    original task labelling (schedules get their rows permuted;
    rejections and undecideds pass through). *)

val verify_decision : decision -> decision
(** The pipeline's "verify" stage: re-check an [Admitted] schedule
    against the independent {!E2e_schedule.Schedule.check} checker after
    relabelling, before commit.  On the (never-expected) failure of a
    solver-constructed schedule, bumps [serve.verify_failures] and
    downgrades to [Undecided { reason = "verify-failed" }] rather than
    committing an unverified schedule.  [Rejected]/[Undecided] pass
    through.  Runs in both the batched and the sequential reference
    paths, so the differential harnesses agree by construction. *)

type solved = { decision : decision; hint : E2e_core.H_portfolio.strategy option }
(** What the cache stores: the pre-verify canonical decision plus the
    portfolio strategy that produced it (when one did).  The hint rides
    along so a cache hit commits the same warm-start state as the solve
    it replaces — cached and uncached runs then hint future solves
    identically. *)

val cache_key :
  budget:budget -> ?hint:E2e_core.H_portfolio.strategy -> Cache.canonical -> string
(** The cache key for a canonical candidate under a budget — the budget
    is part of the key, so decisions taken under different budgets never
    alias.  So is the warm-start [hint]: it reorders the portfolio and
    changes which strategy wins, so hinted and unhinted solves of the
    same canonical set are distinct cache entries. *)

val record_decision : decision -> unit
(** Bump the [serve.admitted]/[serve.rejected]/[serve.undecided]
    counter for one reply (exposed for the batcher, which replays
    {!decide_prepared}'s cache dance in deterministic phases). *)

val guard : ('a -> 'b) -> 'a -> ('b, unit) result
(** The per-request exception boundary: [Ok (f x)], or [Error ()] when
    [f x] raises anything but [Out_of_memory] (which propagates).  The
    batcher wraps each stage of a request in it — prepare, the solve
    handed to the worker pool, relabel and verify — and {!apply} wraps
    the whole request. *)

val internal_error : string -> reply
(** [Request_error { shop; message = "internal" }], rendered
    [error shop=<shop> internal]: the reply to a request that raised.
    Bumps [serve.internal_failures]. *)

type prepared = {
  candidate : E2e_model.Recurrence_shop.t;
  canon : Cache.canonical;
  hint : E2e_core.H_portfolio.strategy option;
      (** The committed shop's portfolio hint ([Add] only). *)
  is_add : bool;
}
(** A validated [Submit]/[Add]: the merged committed-plus-candidate set
    together with its canonical form and the warm-start context the
    portfolio hint runs on. *)

val prepare : ?keyer:Cache.Keyer.t -> t -> request -> (prepared, reply) result
(** Validate one request and canonicalize its candidate, or return the
    error/informational reply for requests that need no solve ([Query],
    [Drop], malformed [Submit]/[Add]).  Canonicalization reuses earlier
    work: an [Add] merges the fresh tasks into the committed set's
    {e stored} canonical order ({!Cache.merge}), and a [Submit] goes
    through the [keyer]'s structural pre-key when one is given, sharing
    the canonical (and its digest) of a repeated instance.  Exposed so
    the batcher can validate and canonicalize sequentially while fanning
    only the solves out in parallel. *)

val try_incremental : prepared -> (decision * E2e_core.H_portfolio.strategy option) option
(** Nothing in [lib/] or [bin/] calls this: it stays for the
    benchmark's traced replay, which times identical-length adds apart.
    [Some] exactly for an [Add] whose canonical merged shop is
    traditional and identical-length, and then the unhinted
    {!solve_prepared} result: for such a shop
    {!E2e_core.Solver.solve} goes straight to EEDF and never fails
    heuristically, so budget and hint play no part and the strategy is
    always [None].  Every other candidate gives [None]. *)

val hint_of : prepared -> E2e_core.H_portfolio.strategy option
(** [p.hint]: what {!solve_prepared} warm-starts with and {!cache_key}
    tags.  Like {!state_of_cached}, kept for the benchmark's replay;
    nothing in [lib/] or [bin/] calls it. *)

val solve_prepared :
  budget:budget -> prepared -> solved * E2e_core.H_portfolio.strategy option
(** The hinted full solve for one prepared candidate, on its canonical
    form.  Pure (no cache, no commit), safe on worker domains — the
    batcher fans its solves out with it.  The [solved] is what the cache
    stores; the second component is its [hint], the strategy {!commit}
    parks. *)

val state_of_cached : solved -> E2e_core.H_portfolio.strategy option
(** The hint a cache hit commits: [s.hint]. *)

val cache_for : prepared -> 'a Cache.t option -> 'a Cache.t option
(** The cache a prepared candidate may use: the given one for a
    [Submit], [None] for an [Add].  {!decide_prepared} and the batcher's
    lookup both go through it, so the policy is written once. *)

val decide_prepared :
  ?budget:budget ->
  ?cache:solved Cache.t ->
  prepared ->
  decision * E2e_core.H_portfolio.strategy option
(** Decide one prepared candidate on one path: a [Submit] through the
    cache under the hint-tagged key (find, or {!solve_prepared} then
    insert), an [Add] by one uncached {!solve_prepared}.  An [Add] never
    looks up or inserts a cache entry: its merged shop is one-off, and
    an entry would pin a whole shop and its schedule in memory for no
    later hit.  Relabels, verifies and records the decision; returns the
    hint for {!commit}.  The batcher replays exactly this policy across
    its phases, so both interpreters agree reply-for-reply. *)

val commit :
  ?prepared:prepared ->
  ?state:E2e_core.H_portfolio.strategy option ->
  t ->
  request ->
  decision option ->
  t
(** Fold a processed request into the state: a [Submit]/[Add] decided
    [Admitted] commits its candidate {e and its canonical} (handed back
    on the next [Add]'s merge) {e and the hint [state]} (default
    none), [Drop] removes its shop, and everything else ([Rejected],
    [Undecided], [Query], no-solve replies) leaves the state unchanged.
    Pass the [prepared] value from {!prepare} to avoid re-validating and
    re-canonicalizing; without it the commit recomputes both. *)

val resident_sizes : t -> (string * int) list
(** Committed task count per shop, sorted by shop name — the per-shop
    resident size the [metrics] reply exposes. *)

val apply :
  ?budget:budget ->
  ?cache:solved Cache.t ->
  ?keyer:Cache.Keyer.t ->
  t ->
  request ->
  t * reply
(** [prepare] + [decide_prepared] + [commit] in one step — the
    sequential reference interpreter the differential fuzzer checks the
    batched engine against.  A request that raises is answered
    {!internal_error} and leaves the state as it was. *)

val decision_kind : decision -> string
(** ["admitted"], ["rejected"] or ["undecided"] — the verdict signature
    that must agree between cached and uncached runs (schedules may
    legitimately differ between permuted instances; verdicts never). *)

val pp_reply : Format.formatter -> reply -> unit
(** One-line, deterministic rendering (the transport protocol reuses
    it). *)
