(** Sorted set of pairwise-disjoint open intervals with binary-search
    queries — the index behind the solvers' forbidden regions.

    The set represents a union of {e open} intervals [(left, right)]:
    the endpoints themselves are outside the set.  Intervals that would
    merely {e touch} at an endpoint are kept separate (their shared
    point is a legal value); intervals that strictly overlap are
    coalesced by {!S.add}.  The representation is an immutable sorted
    pair of endpoint arrays, so queries are O(log n) and [add] is O(n)
    in the worst case (one copy) — the solvers insert O(n) regions and
    query O(n log n) times, so lookups, not insertions, dominate.

    The set is written once, over any ordered time domain ({!Make}):
    the single-machine engine instantiates it on native ints for
    instances on an integer time grid and on exact rationals otherwise.
    The toplevel of this module is the rational instance. *)

(** An ordered time domain: a total order and the additive group
    operations {!S.measure} needs. *)
module type TIME = sig
  type t

  val zero : t
  val compare : t -> t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
end

module type S = sig
  type time
  type t

  val empty : t
  val is_empty : t -> bool

  val cardinal : t -> int
  (** Number of (disjoint) intervals. *)

  val add : t -> left:time -> right:time -> t
  (** Add the open interval [(left, right)], coalescing any strictly
      overlapping intervals.  A degenerate interval ([left >= right]) is
      ignored; an interval sharing only an endpoint with an existing one
      is kept separate. *)

  val remove : t -> left:time -> right:time -> t
  (** Subtract the {e closed} interval [[left, right]]: pieces of
      existing intervals strictly outside it survive, so an interval
      [(l, r)] meeting it becomes [(l, left)] and/or [(right, r)]
      (degenerate pieces dropped).  Closed semantics because the
      difference of two open intervals is not open in general
      ([(a, l]] is unrepresentable); [left = right] removes a single
      point, splitting any interval that strictly contains it.
      [left > right] is a no-op. *)

  val mem : t -> time -> bool
  (** [mem t x] is [true] iff [x] lies strictly inside some interval. *)

  val adjust_up : t -> time -> time
  (** Smallest [y >= x] not strictly inside any interval: [x] itself, or
      the right endpoint of the interval containing it (disjointness
      guarantees that endpoint is itself legal). *)

  val adjust_down : t -> time -> time
  (** Largest [y <= x] not strictly inside any interval: [x] itself, or
      the left endpoint of the interval containing it. *)

  val to_list : t -> (time * time) list
  (** The intervals as [(left, right)] pairs, sorted by left endpoint,
      pairwise disjoint. *)

  val right : t -> int -> time
  (** [right t i] is the right endpoint of the [i]-th interval in
      left-endpoint order (O(1); for the single-machine engine's batched
      region walks).
      @raise Invalid_argument when [i] is out of range. *)

  val rightmost_left_below : t -> time -> int
  (** Index of the rightmost interval whose left endpoint is strictly
      below [x], or [-1] when every interval starts at or after [x]
      (O(log n) — the primitive behind {!adjust_up}/{!adjust_down},
      exposed for the single-machine engine's [g^k] evaluation). *)

  val measure : t -> time
  (** Total length of the set, [sum (right - left)] — the bound [Lambda]
      the single-machine engine uses to prune packing-start candidates. *)
end

module Make (T : TIME) : S with type time = T.t

include S with type time = E2e_rat.Rat.t
