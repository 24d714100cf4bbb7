(** The integer time grid of a shop.

    Every time the paper's algorithms form is a sum, difference or max
    of releases, deadlines and processing times, so a shop's whole
    schedule lies on the lattice [1/L], L the lcm of the denominators of
    its times.  Scaling by L maps all of it onto native ints: EEDF,
    Algorithms A, H and C, the single-machine engine, the checker and
    the reply writer run there and map a value back with
    [Rat.make v L] only where a rational is printed or stored.

    {b The bound.}  {!of_shop} admits a shop only when L, every scaled
    release, deadline and processing time, and P — the sum over stages
    of the longest processing time on the stage — stay within {!limit}
    ([max_int / 2]), each step of that check itself overflow-checked.
    Every value the pipeline then forms is a sum of two terms within
    {!limit}, so it cannot wrap, and every value carried further is
    checked again: the single-machine engine checks its own bound
    B = 4M + (n+1)T on the effective windows, Algorithm C refuses a
    compacted start past {!limit}, and {!check_starts} refuses any
    start past it: Algorithm H runs it on its propagated starts and
    [E2e_schedule.Schedule.of_grid] on every start it is given.  The
    proofs are in the implementation.  A shop or schedule past these
    checks is refused with {!E2e_rat.Rat.Overflow}, the exception the
    63-bit rationals raise for values that do not fit. *)

type rat = E2e_rat.Rat.t

val limit : int
(** [max_int / 2]: a factor of two of headroom under [max_int]. *)

val mul_le : int -> int -> int
(** Product of two non-negative ints.
    @raise E2e_rat.Rat.Overflow past {!limit}. *)

val add_le : int -> int -> int
(** Sum of two non-negative ints.
    @raise E2e_rat.Rat.Overflow past {!limit}. *)

val gcd : int -> int -> int
(** Greatest common divisor of two non-negative ints. *)

val lcm : int -> int -> int
(** Least common multiple of two positive ints.
    @raise E2e_rat.Rat.Overflow past {!limit}. *)

val lcm_den : int -> rat -> int
(** [lcm_den l x] is the lcm of [l] and the denominator of [x].
    @raise E2e_rat.Rat.Overflow past {!limit}. *)

val scaled : int -> rat -> int
(** [scaled l x] is [x * l].
    @raise Invalid_argument unless the denominator of [x] divides [l].
    @raise E2e_rat.Rat.Overflow when the magnitude passes {!limit}. *)

val rescale : int -> rat -> int
(** [rescale l x] is {!scaled} without either check: only for the times
    of a shop (or the starts of a schedule) that a grid of scale [l] has
    already admitted. *)

val check_starts : int array array -> unit
(** Admit a start matrix on a grid: every start's magnitude is within
    {!limit}.
    @raise E2e_rat.Rat.Overflow otherwise. *)

val map_rows : ('a -> 'b array) -> 'a array -> 'b array array
(** [Array.map] for row-valued functions, without the minor collection
    [Array.map] forces past 256 rows (it seeds the result with the
    fresh first row, which the runtime must promote first, stopping
    every domain). *)

type t = private {
  shop : Recurrence_shop.t;
  scale : int;  (** L. *)
  release : int array;  (** [release.(i)]: task [i]'s release times L. *)
  deadline : int array;
  tau : int array array;  (** [tau.(i).(j)]: stage [j] of task [i], times L. *)
  max_tau : int array;  (** [max_tau.(j)]: the longest [tau.(_).(j)]. *)
}

val of_shop : Recurrence_shop.t -> t
(** The shop scaled onto its grid.
    @raise E2e_rat.Rat.Overflow when the shop does not fit. *)

val of_schedule : Recurrence_shop.t -> rat array array -> t * int array array
(** [of_schedule shop starts]: the grid of the shop and the starts
    together — L also covers the starts' denominators, and each start
    must be within {!limit} too — with the starts scaled onto it.
    @raise E2e_rat.Rat.Overflow when they do not fit. *)

val to_rat : t -> int -> rat
(** [to_rat g v] is [v / L], the rational a grid value stands for. *)

(** {1 The candidate check} *)

type misfit =
  | Scale  (** L, a scaled time or P passes {!limit}: {!of_shop} would refuse. *)
  | Bound
      (** Everything scales, but [B* = 4 (R + P) + (n+1) P] passes
          {!limit}, R the largest scaled release or deadline magnitude:
          the single-machine bound B of some stage might. *)

val fit :
  stages:int -> ((rat -> rat -> rat array -> unit) -> unit) -> (unit, misfit) result
(** [fit ~stages iter] decides whether the tasks [iter] feeds its
    callback — [release deadline proc_times], one call per task — fit
    the grid: L and every scaled time within {!limit}, and B* too.  It
    compares and sums no rational, so it is safe on any input, and a
    shop that passes it passes {!of_shop} and never overflows a
    [Rat.compare] of two of its times (the proof is in the
    implementation).  Times at positions [stages] and beyond widen L but
    count toward no stage. *)

type extent
(** What {!fit} knows of a candidate that fits: L, the largest scaled
    release or deadline magnitude, the per-stage maxima and the task
    count. *)

val extent :
  stages:int -> ((rat -> rat -> rat array -> unit) -> unit) -> (extent, misfit) result
(** {!fit}, keeping the extent of a candidate that fits. *)

val extend : extent -> ((rat -> rat -> rat array -> unit) -> unit) -> (extent, misfit) result
(** [extend e iter] resumes the pass that built [e] with the tasks
    [iter] feeds, rescaling what [e] holds when L grows: the result is
    exactly {!extent} over the tasks behind [e] followed by these, at
    the cost of the new tasks only.  [e] is not changed. *)
