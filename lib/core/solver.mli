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
    (both optimal), everything else to Algorithm H.
    @raise E2e_rat.Rat.Overflow when the shop does not fit its integer
    grid ({!E2e_model.Grid}). *)

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
