(** Sorted set of pairwise-disjoint open intervals on integer time, with
    binary-search queries — the index behind the single-machine
    engine's forbidden regions.

    The set represents a union of {e open} intervals [(left, right)]:
    the endpoints themselves are outside the set.  Intervals that would
    merely {e touch} at an endpoint are kept separate (their shared
    point is a legal value); intervals that strictly overlap are
    coalesced by {!add}.  The representation is an immutable sorted
    pair of endpoint arrays, so queries are O(log n) and [add] is O(n)
    in the worst case (one copy) — the solvers insert O(n) regions and
    query O(n log n) times, so lookups, not insertions, dominate.
    Times are native ints: [E2e_core.Single_machine] scales each
    rational instance onto an integer grid before it builds regions. *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of (disjoint) intervals. *)

val add : t -> left:int -> right:int -> t
(** Add the open interval [(left, right)], coalescing any strictly
    overlapping intervals.  A degenerate interval ([left >= right]) is
    ignored; an interval sharing only an endpoint with an existing one
    is kept separate. *)

val mem : t -> int -> bool
(** [mem t x] is [true] iff [x] lies strictly inside some interval. *)

val adjust_up : t -> int -> int
(** Smallest [y >= x] not strictly inside any interval: [x] itself, or
    the right endpoint of the interval containing it (disjointness
    guarantees that endpoint is itself legal). *)

val adjust_down : t -> int -> int
(** Largest [y <= x] not strictly inside any interval: [x] itself, or
    the left endpoint of the interval containing it. *)

val to_list : t -> (int * int) list
(** The intervals as [(left, right)] pairs, sorted by left endpoint,
    pairwise disjoint. *)

val right : t -> int -> int
(** [right t i] is the right endpoint of the [i]-th interval in
    left-endpoint order (O(1); for the single-machine engine's batched
    region walks).
    @raise Invalid_argument when [i] is out of range. *)

val rightmost_left_below : t -> int -> int
(** Index of the rightmost interval whose left endpoint is strictly
    below [x], or [-1] when every interval starts at or after [x]
    (O(log n) — the primitive behind {!adjust_up}/{!adjust_down},
    exposed for the single-machine engine's [g^k] evaluation). *)

val measure : t -> int
(** Total length of the set, [sum (right - left)] — the bound [Lambda]
    the single-machine engine uses to prune packing-start candidates. *)
