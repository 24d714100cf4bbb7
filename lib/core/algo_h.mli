(** Algorithm H: the paper's heuristic for arbitrary task sets
    (Section 4, Figure 6).

    An arbitrary task set is turned into a homogeneous one by {e
    inflating} every subtask on processor [P_j] to the longest subtask
    time [tau_max,j] found there (each inflated subtask = busy segment
    followed by idle padding).  Algorithm A schedules the inflated set
    optimally; Algorithm C then compacts the resulting permutation
    schedule with the original processing times.  Complexity
    O(n log n + n m).

    H is {e not} optimal, for the two reasons the paper names: inflation
    adds workload (so A may fail or pick a bad order on the bottleneck),
    and only permutation schedules are explored.

    One int pipeline serves {!run} and {!schedule}: the shop is scaled
    onto its integer grid ({!E2e_model.Grid}) once, and the bottleneck
    pass, the inflated propagation, Algorithm C and H's own feasibility
    test all read ints; the result, and [raw] when forced, are built
    from those ints with {!E2e_schedule.Schedule.of_grid}. *)

type failure =
  [ `Inflated_infeasible
    (** Algorithm A found the inflated set unschedulable. *)
  | `Compacted_infeasible of E2e_schedule.Schedule.t
    (** The compacted schedule still violates a constraint; the witness
        schedule is attached. *) ]

val pp_failure : Format.formatter -> failure -> unit

type report = {
  inflated : E2e_model.Flow_shop.t Lazy.t;
      (** Step 3's homogeneous task set, built when forced: the pipeline
          itself only needs its per-processor times, on the grid. *)
  bottleneck : int;  (** Step 1 of Algorithm A's choice. *)
  raw : E2e_schedule.Schedule.t Lazy.t option;
      (** A's inflated-set schedule reread with the original processing
          times — the "before compaction" schedule of Figure 8(a).
          [None] when A already failed.  Built when forced: the pipeline
          reads only its int starts, which {!run} has already checked
          against {!E2e_model.Grid.limit}, so forcing it never raises. *)
  result : (E2e_schedule.Schedule.t, failure) result;
}

val run :
  ?compact:bool -> ?bottleneck:int -> E2e_model.Flow_shop.t -> report
(** Full pipeline with intermediates.  [?compact:false] skips Step 5 (the
    compaction ablation); [?bottleneck] overrides A's bottleneck choice
    (the bottleneck ablation).
    @raise E2e_rat.Rat.Overflow when the shop does not fit its integer
    grid. *)

val schedule :
  E2e_model.Flow_shop.t -> (E2e_schedule.Schedule.t, failure) result
(** Just the answer: [(run shop).result].  [Ok s] is always feasible
    (checker-verified); an error does {e not} prove infeasibility — H is
    a heuristic.
    @raise E2e_rat.Rat.Overflow when the shop does not fit its integer
    grid. *)
