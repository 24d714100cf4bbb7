(** Explicit nonpreemptive schedules and an independent feasibility
    checker.

    A schedule assigns a start time to every (task, stage) pair of a
    (possibly recurrent) flow shop.  The checker re-derives every
    constraint of the paper's model from scratch — release times,
    end-to-end deadlines, chain precedence, and mutual exclusion on every
    processor — so that the optimality claims of the scheduling
    algorithms are validated by code that shares nothing with them. *)

type rat = E2e_rat.Rat.t

type grid
(** A schedule's integer-grid form: the scale L of its shop's
    {!E2e_model.Grid} and every start times L.  The shop's own times are
    rescaled from its rationals where they are needed, not stored. *)

type t = private {
  shop : E2e_model.Recurrence_shop.t;
  starts : rat array array;  (** [starts.(i).(j)]: start of stage [j] of task [i]. *)
  grid : grid option;
      (** Present when the schedule was built by {!of_grid} (and kept by
          {!relabel}): the checker, {!makespan} and {!write_csv} then
          read ints. *)
}

val make : E2e_model.Recurrence_shop.t -> rat array array -> t
(** A schedule without a grid form; its checker scales it onto a grid
    once per check.
    @raise Invalid_argument on a shape mismatch with the shop. *)

val of_grid : E2e_model.Grid.t -> int array array -> t
(** [of_grid g starts] is the schedule of [g]'s shop whose start of
    stage [j] of task [i] is [starts.(i).(j) / L]: the rational [starts]
    are made once, here, and the int starts are kept as the grid form.
    @raise Invalid_argument on a shape mismatch with the shop.
    @raise E2e_rat.Rat.Overflow when a start's magnitude passes
    {!E2e_model.Grid.limit}. *)

val of_flow_shop : E2e_model.Flow_shop.t -> rat array array -> t
(** Wraps a traditional flow shop. *)

val relabel : perm:int array -> t -> E2e_model.Recurrence_shop.t -> t
(** [relabel ~perm t shop] moves row [p] of [t] (its rational and its
    grid starts alike) to row [perm.(p)] of a schedule of [shop] — the
    schedule of [t]'s shop with its tasks permuted, so that task [p] of
    [t.shop] is task [perm.(p)] of [shop].  Feasibility is unchanged.
    @raise Invalid_argument when [perm] is not a permutation or [shop]
    is not [t]'s shop permuted by it. *)

val start : t -> task:int -> stage:int -> rat
val finish : t -> task:int -> stage:int -> rat
val completion : t -> int -> rat
(** Completion time of a task: finish of its last stage. *)

val makespan : t -> rat
(** Latest completion over all tasks, and at least 0 (read from the
    grid form when there is one). *)

val is_permutation : t -> bool
(** True when all processors execute the tasks in one common order —
    the schedule class Algorithm H searches (Section 4). *)

(** {1 Checking} *)

type violation =
  | Release_violated of { task : int; start : rat; release : rat }
      (** The first stage starts before the task's end-to-end release. *)
  | Deadline_missed of { task : int; finish : rat; deadline : rat }
  | Precedence_violated of { task : int; stage : int; start : rat; prev_finish : rat }
      (** A stage starts before the previous stage of the same task ends. *)
  | Overlap of { processor : int; a : int * int; b : int * int }
      (** Two stages (task, stage) execute simultaneously on one processor. *)

val pp_violation : Format.formatter -> violation -> unit

val violations : t -> violation list
(** All constraint violations, in the order of {!violations_ref}: the
    empty list means the schedule is feasible in the sense of the paper.
    Runs on ints: on the grid form when the schedule has one, otherwise
    on a grid of its shop and starts made once per call
    ({!E2e_model.Grid.of_schedule}); only a schedule whose grid does not
    fit is checked by {!violations_ref}. *)

val violations_ref : t -> violation list
(** The reference checker: the same list derived on the rationals, with
    no scaling.  The path for schedules whose grid does not fit, and the
    independent reference the grid checker is tested against. *)

val is_feasible : t -> bool

val check : t -> (unit, violation list) result

(** {1 Construction helpers} *)

val forward_pass : E2e_model.Recurrence_shop.t -> order:int array -> t
(** List schedule: visit tasks in [order]; each stage starts as early as
    possible, at the max of its effective availability (previous stage's
    finish, or the task release for stage 0) and the time its processor
    frees up.  Within [order], earlier tasks get the processor first.
    This is the earliest-start schedule for the given permutation, used
    by the exhaustive baseline, the workload generator, and tests. *)

val left_shift : t -> t
(** Compaction of an arbitrary schedule: keeping every processor's
    execution order, restart every stage as early as release, precedence
    and the processor's previous stage allow (the generalisation of the
    paper's Algorithm C to non-permutation schedules). *)

(** {1 Reporting} *)

val pp_table : Format.formatter -> t -> unit
(** One line per stage: task, stage, processor, start, finish,
    effective window. *)

val to_csv : t -> string
(** A machine-readable dump, one line per stage:
    [task,stage,processor,start,finish] with exact rational fields
    (["3/2"]).  For feeding external plotting or runtime tables. *)

val write_csv : Bytes.t -> int -> sep:char -> t -> Bytes.t * int
(** [write_csv b pos ~sep t] writes the rows of {!to_csv} into [b] from
    [pos] on: the header, then each stage's row preceded by [sep], with
    no trailing separator.  It returns the bytes written to — [b], or a
    grown copy holding [b]'s first [pos] bytes when [b] ran short — and
    the position after the last row.  Digits go straight into the bytes,
    with room checked once per row.  [to_csv] is [~sep:'\n'] plus a
    final newline; the admission service's replies use [~sep:';'].
    With a grid form a finish that equals the next stage's start on the
    grid is written from that start's rational, and any other as
    [(s + tau) / L] reduced by one int gcd. *)

val pp_gantt : ?unit_time:rat -> Format.formatter -> t -> unit
(** ASCII Gantt chart, one row per processor, one column per [unit_time]
    (default 1).  Stage occupying a cell prints the task id (mod 10);
    idle prints [.].  Starts that fall inside a cell round down, so the
    chart is exact when all times are multiples of [unit_time].  Column 0
    is time 0, unless some stage starts earlier, in which case the axis
    is offset to the earliest start (announced by a [t = ... at column 0]
    header line) so pre-zero entries are drawn instead of being clamped
    into the first cell. *)
