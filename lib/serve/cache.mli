(** Canonicalizing solver cache.

    The admission engine re-solves the committed-plus-candidate task set
    on every request, and production request streams repeat themselves:
    the same task set is proposed again, or a permutation of it (task
    ids are labels, not semantics).  This module makes such repeats
    free.

    {b Canonical form.}  A (possibly recurrent) flow shop is normalised
    by sorting its tasks lexicographically by (release, deadline,
    processing-time vector) under exact rational comparison — rationals
    are already in canonical form (lowest terms, positive denominator,
    {!E2e_rat.Rat.t}), so the sorted {!E2e_model.Instance_io} rendering
    is a canonical representative of the instance's permutation class.
    The cache key is its digest.  Feasibility is invariant under task
    relabelling, so one cached solve answers every permutation of the
    instance; {!restore_starts} maps a schedule computed on the
    canonical shop back to the original task labelling.

    {b Replacement and metering.}  A bounded LRU: [find] refreshes
    recency, [add] evicts the least-recently-used entry once past
    capacity.  Hits, misses and evictions are counted both per cache
    ({!stats}) and in the global {!E2e_obs.Obs} registry
    ([serve.cache.hit], [serve.cache.miss], [serve.cache.eviction]).

    The cache is mutable but all operations are deterministic; the
    batcher keeps replies reproducible by performing every lookup and
    insertion at fixed points in submission order (never from worker
    domains). *)

type canonical = {
  shop : E2e_model.Recurrence_shop.t;  (** Tasks in canonical order, ids [0..n-1]. *)
  perm : int array;
      (** [perm.(p)] is the original id of the task at canonical
          position [p]. *)
  key : string Lazy.t;
      (** Digest of the canonical rendering, computed when first forced.
          Only cache lookups force it, always on the batcher's own
          domain: two domains must never force one key at once. *)
}

val canonicalize : E2e_model.Recurrence_shop.t -> canonical

val key : E2e_model.Recurrence_shop.t -> string
(** [key shop] = [Lazy.force (canonicalize shop).key]. *)

val merge : base:canonical -> E2e_model.Task.t array -> canonical
(** [merge ~base fresh] is [canonicalize] of the shop whose task array is
    [base]'s original task set followed by [fresh] (ids renumbered
    densely, [fresh.(i)] becoming original id [n + i]) — computed
    incrementally: the committed side contributes its already-sorted
    order, so only the [fresh] tasks are sorted before one stable merge.
    Nothing is rendered or digested until the key is forced, which the
    admission engine never does for an [Add]. *)

(** Structural pre-key: a memo that recognises repeated instances (byte
    repeats and permutations alike) after sorting alone and shares the
    stored canonical, so a repeat never renders or digests its key
    again.  Every memo hit is verified with exact rational comparison
    against the stored canonical before its key is reused, so
    fingerprint collisions cost time, never correctness.  Counters:
    [serve.keyer.reuse], [serve.keyer.render]. *)
module Keyer : sig
  type t

  val create : unit -> t

  val canonicalize : t -> E2e_model.Recurrence_shop.t -> canonical
  (** Same result as the top-level {!canonicalize} (the [perm] is the
      candidate's own; shop and key may be shared with earlier
      results). *)

  type stats = { reused : int; rendered : int }

  val stats : t -> stats
end

val restore_starts :
  canonical -> E2e_rat.Rat.t array array -> E2e_rat.Rat.t array array
(** Map per-task start times computed against the canonical shop back to
    the original task order: row [perm.(p)] of the result is row [p] of
    the input. *)

type 'a t
(** An LRU cache from canonical keys to ['a]. *)

val create : capacity:int -> 'a t
(** [capacity] is the maximum number of entries; [0] disables the cache
    ({!find} always misses, {!add} is a no-op).
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup by canonical key, refreshing recency and counting a hit or a
    miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or refresh) a binding, evicting the least-recently-used
    entry when the cache would exceed capacity. *)

type stats = { hits : int; misses : int; evictions : int; size : int }

val stats : 'a t -> stats

val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)
