(** One-call front end: classify the task set and dispatch to the
    strongest applicable algorithm from the paper. *)

type verdict =
  | Feasible of E2e_schedule.Schedule.t * [ `Eedf | `Algorithm_a | `Algorithm_h ]
      (** A checker-verified feasible schedule and the algorithm that
          produced it. *)
  | Proved_infeasible of [ `Eedf | `Algorithm_a ]
      (** An optimal algorithm applied, so no feasible schedule exists. *)
  | Heuristic_failed
      (** Algorithm H gave up; feasibility is undecided (the general
          problem is NP-hard). *)

val solve : E2e_model.Flow_shop.t -> verdict
(** Identical-length sets go to EEDF, homogeneous sets to Algorithm A
    (both optimal), everything else to Algorithm H. *)

(** Warm-started re-solves for identical-length shops.

    A resident handle keeps the reduced single-machine instance as a
    {!Single_machine.Inc.state}; admitting more tasks re-solves by
    [add_task] deltas (O(delta) passes) instead of from scratch.  All
    verdicts are byte-identical to {!solve} on the same shop, so cold
    and warm paths can be mixed freely — both run
    {!Single_machine.Inc}, and the [eedf-fast] and [eedf-inc]
    differential fuzz classes check its one-shot and warm results
    against the scan-based reference. *)
module Incremental : sig
  type t

  val of_flow_shop : E2e_model.Flow_shop.t -> t option
  (** Solve from scratch and retain the warm-start state; [None] when
      the shop is not identical-length (no incremental capability). *)

  val verdict : t -> E2e_model.Flow_shop.t -> verdict
  (** The verdict for the handle's current task set, lifted back to
      [shop] (which must be the shop the handle currently represents).
      O(n) — the solve happened at construction / extension time. *)

  val extend : t -> E2e_model.Flow_shop.t -> t option
  (** Grow the handle to [shop], whose reduced job list must contain the
      resident jobs as a subsequence on (release, effective deadline) —
      what the admission cache's stable merge produces for committed +
      fresh tasks.  [None] when [shop] is not such an extension (caller
      falls back to a cold solve).  The input handle remains valid. *)

  val resident : t -> int
  (** Number of tasks in the resident state. *)

  val solve_with_state : E2e_model.Flow_shop.t -> verdict * t option
  (** Like {!solve}, but additionally returns the warm-start handle when
      the shop was solved feasible on the EEDF path. *)
end

val solve_recurrent : E2e_model.Recurrence_shop.t -> (E2e_schedule.Schedule.t, Algo_r.error) result
(** Recurrent shops go to Algorithm R (optimal under its preconditions);
    traditional visit sequences are routed through {!solve}'s EEDF path
    when identical-length. *)

type recurrent_verdict =
  | Recurrent_feasible of
      E2e_schedule.Schedule.t * [ `Algorithm_r | `Greedy_edf | `Traditional ]
      (** [`Traditional]: the visit sequence had no recurrence, so the
          schedule came from {!solve}. *)
  | Recurrent_proved_infeasible
      (** An optimal algorithm (R, EEDF or A) applied. *)
  | Recurrent_undecided  (** Heuristic fallback failed; NP-hard in general. *)

val solve_recurrent_or_fallback : E2e_model.Recurrence_shop.t -> recurrent_verdict
(** Like {!solve_recurrent}, but when Algorithm R's preconditions fail
    (non-identical processing times, staggered releases, or a visit
    sequence with a complex recurrence pattern) it falls back to the
    greedy earliest-effective-deadline dispatcher and keeps the result
    only if the independent checker accepts it. *)

val pp_verdict : Format.formatter -> verdict -> unit
