(** Algorithm A: optimal scheduling of homogeneous task sets
    (Section 4, Figure 4 of the paper).

    In a homogeneous task set the processing time is constant per
    processor ([tau_j] on [P_j]) but differs between processors.  The
    processor with the largest [tau_j] is the {e bottleneck} [P_b]; its
    subtasks form an equal-length single-machine instance with effective
    release times [r_ib] and effective deadlines [d_ib], solved optimally
    by EEDF with forbidden regions.  The bottleneck schedule is then
    propagated: downstream stages chain immediately after their
    predecessors; upstream stages are laid back-to-back ending exactly
    when the bottleneck stage starts.  Because [tau_b] dominates every
    other stage time, neither direction can collide, so the flow shop is
    feasible exactly when the bottleneck instance is.

    The whole pipeline runs on the shop's integer grid
    ({!E2e_model.Grid}): windows, the bottleneck pass and propagation
    are int arithmetic, and the schedule is built once with
    {!E2e_schedule.Schedule.of_grid}. *)

val schedule :
  ?bottleneck:int ->
  E2e_model.Flow_shop.t ->
  (E2e_schedule.Schedule.t, [ `Infeasible | `Not_homogeneous ]) result
(** Optimal for homogeneous sets; [`Infeasible] means no feasible
    schedule exists.  [?bottleneck] overrides Step 1's choice (used by
    the bottleneck-choice ablation); correctness of the optimality claim
    requires it to be a processor with maximal [tau_j].
    @raise E2e_rat.Rat.Overflow when the shop does not fit its integer
    grid. *)

val bottleneck_windows : E2e_model.Grid.t -> bottleneck:int -> int array * int array
(** The effective releases and deadlines of every task's subtask on
    [P_b], on the grid: the reduced single-machine instance (Algorithm H
    reuses it for its inflated pass). *)

val propagate : bottleneck:int -> taus:int array -> int array -> int array array
(** Step 3 of Figure 4 on the grid: given the bottleneck starts and the
    per-processor times [taus] (Algorithm H passes its inflated ones),
    every task's starts on all processors. *)

val longest : int array -> int
(** The first index of a largest entry: Step 1's bottleneck over
    per-processor times. *)
