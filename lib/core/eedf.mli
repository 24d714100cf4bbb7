(** Optimal flow-shop scheduling of identical-length task sets
    (Section 3 of the paper).

    When every subtask of every task takes the same time [tau], the whole
    flow shop is driven from processor [P_1]: schedule the first subtasks
    by EEDF — earliest {e effective} deadline first over the modified
    (forbidden-region) release times — and propagate, starting each later
    subtask the instant its predecessor completes.  With equal stage
    lengths the pipeline never collides, so the flow-shop problem reduces
    exactly to the single-machine problem on [P_1] with deadlines
    [d_i - (m-1) tau].

    The reduction, the single-machine pass and the propagation run on
    the shop's integer grid ({!E2e_model.Grid}); the schedule is built
    once with {!E2e_schedule.Schedule.of_grid}. *)

val schedule :
  E2e_model.Flow_shop.t ->
  (E2e_schedule.Schedule.t, [ `Infeasible | `Not_identical_length ]) result
(** Optimal: [`Infeasible] means no feasible schedule exists.
    [`Not_identical_length] if the precondition fails (use Algorithm A or
    H instead).
    @raise E2e_rat.Rat.Overflow when the shop does not fit its integer
    grid. *)

val schedule_no_regions :
  E2e_model.Flow_shop.t ->
  (E2e_schedule.Schedule.t, [ `Deadline_missed of int | `Not_identical_length ]) result
(** Ablation: plain priority-driven EDF on [P_1], without the forbidden
    regions.  Not optimal for arbitrary rational release times.
    @raise E2e_rat.Rat.Overflow when the shop does not fit its integer
    grid. *)
