(** Polymorphic binary min-heap.

    The priority queue behind the solver dispatch loops (ready queues
    keyed by effective deadline, pending queues keyed by release time,
    both over exact {!E2e_rat.Rat} priorities) and the simulators' event
    queues.  [push]/[pop] are O(log n); [peek] is O(1).

    The heap is not stable: elements comparing equal under [cmp] pop in
    an unspecified (but deterministic) order, so callers needing a total
    dispatch order must break ties inside [cmp] (the solvers key by
    [(deadline, release, id)]). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Remove every element (also releases the backing storage). *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val copy : 'a t -> 'a t
(** O(n) snapshot: an independent heap with the same contents and
    comparison; pushes and pops on either side never affect the other
    (elements themselves are shared). *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val drain : 'a t -> 'a list
(** Pops everything; the result is sorted by [cmp]. *)
