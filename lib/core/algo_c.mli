(** Algorithm C: compaction of permutation schedules
    (Section 4, Figure 7 of the paper).

    Given a permutation schedule of the original task set (typically the
    one Algorithm A produced for the {e inflated} task set, reread with
    the original processing times), Algorithm C re-times every subtask as
    early as its effective release, its predecessor stage, and the
    previous task on its processor allow, preserving the execution order.
    This removes the idle segments that inflation inserted and repairs
    release-time violations introduced by Algorithm A's rigid upstream
    propagation.  It runs on the shop's integer grid
    ({!E2e_model.Grid}). *)

val compact_grid :
  ?keep_first_start:bool -> E2e_model.Grid.t -> int array array -> int array array
(** [compact_grid g starts] follows Figure 7 literally on grid starts
    ([starts.(i).(j)] times L): with [keep_first_start] (default [true],
    as in the paper) the first task's first-stage start is [max] of its
    current start and its release, rather than being pulled all the way
    back to the release.  The task order is the one [Array.sort] gives
    the tasks by first-stage start.  Returns the compacted starts on the
    same grid.

    @raise Invalid_argument if [g]'s shop is not a traditional flow
    shop. *)

val compact :
  ?keep_first_start:bool -> E2e_schedule.Schedule.t -> E2e_schedule.Schedule.t
(** {!compact_grid} on the schedule's shop and starts, scaled together
    onto one grid ({!E2e_model.Grid.of_schedule}).

    @raise Invalid_argument if [s] is not a permutation schedule over a
    traditional flow shop.
    @raise E2e_rat.Rat.Overflow when the shop and starts do not fit
    their grid. *)

val order_on_processor : E2e_schedule.Schedule.t -> int -> int array
(** Task indices in order of their start time on the given processor.
    @raise E2e_rat.Rat.Overflow when the shop and starts do not fit
    their grid. *)
