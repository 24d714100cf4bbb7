(** The differential judgment: one solver run cross-checked against the
    exhaustive oracles and the independent schedule checker.

    Each model class pits the algorithm whose optimality the paper claims
    against a baseline that shares nothing with it:

    - [Eedf] — {!E2e_core.Eedf.schedule} vs. all-schedule branch and
      bound ({!E2e_baselines.Branch_bound});
    - [R] — {!E2e_core.Algo_r.schedule} vs. the slotted exhaustive search
      ({!E2e_baselines.Exhaustive_recurrence});
    - [A] — {!E2e_core.Algo_a.schedule} vs. branch and bound;
    - [H] — {!E2e_core.Algo_h}, {!E2e_core.H_portfolio} and the
      {!E2e_core.Solver} front end vs. the permutation-order oracle
      ({!E2e_baselines.Exhaustive}) and branch and bound.  H is a
      heuristic, so a failure is never a bug by itself; but any schedule
      it returns must pass {!E2e_schedule.Schedule.check}, a feasible H
      schedule implies a feasible permutation order the oracle must also
      find, and the front end's infeasibility proofs must hold up;
    - [Eedf_fast] — the one-shot {!E2e_core.Single_machine} entry
      points vs. the retained scan-based {!Single_machine_ref}, compared
      for exact rational equality on region lists, optimal schedules and
      the plain-EDF ablation.  An instance past the engine's integer
      grid bound ({!grid_fit}) must instead be refused by every entry
      point with [Rat.Overflow], and then agrees.  No oracle budget:
      every trial is decidable.

    Every returned schedule, from solver and oracle alike, is validated
    by the reference checker {!E2e_schedule.Schedule.violations_ref},
    which works on the rationals: the solvers and the production checker
    run on the integer grid, so the eedf, a and h classes test that int
    pipeline against code that shares none of it. *)

type kind =
  | Invalid_schedule
      (** The solver returned a schedule the independent checker rejects. *)
  | Claimed_infeasible
      (** The solver proved infeasibility, but the oracle found a
          feasible schedule. *)
  | Claimed_feasible
      (** The solver returned a (checker-clean) schedule on an instance
          the oracle proves infeasible — one of the two sides is wrong. *)
  | Precondition
      (** The solver rejected optimality preconditions the generator
          guarantees (identical lengths, homogeneity, single loop, ...). *)
  | Divergence
      (** The {!E2e_core.Single_machine} engine and the retained
          scan-based {!Single_machine_ref} disagree on some output
          (regions, optimal starts, or the plain-EDF ablation), or the
          engine's refusals do not match {!grid_fit} — the [eedf-fast]
          class. *)
  | Crash of string  (** The solver raised. *)

type outcome =
  | Agree  (** Solver and oracle concur; all schedules checker-clean. *)
  | Skip of string
      (** The oracle could not decide (search budget or guard); nothing
          was falsified. *)
  | Bug of { kind : kind; detail : string }

val is_bug : outcome -> bool
val pp_kind : Format.formatter -> kind -> unit
val pp_outcome : Format.formatter -> outcome -> unit

val run : Gen.model_class -> E2e_model.Recurrence_shop.t -> outcome
(** Run the class's differential comparison on one instance.  Solver
    exceptions are caught and classified as [Bug Crash]; oracle guard
    violations become [Skip]. *)

val grid_fit :
  tau:E2e_rat.Rat.t ->
  E2e_core.Single_machine.job array ->
  [ `Fits of int | `Over | `Edge ]
(** The single-machine engine's documented integer-grid bound, computed
    independently of the engine: [`Fits l] when L (the lcm of every
    denominator, returned) and B = 4M + (n+1)T in scaled units both
    stay within [max_int / 2] — the engine must then answer — and
    [`Over] when either passes it — every entry point must then raise
    [Rat.Overflow].  The products are formed in floats, so values within
    a relative 1e-9 of the limit give [`Edge], which decides nothing. *)

val eedf_jobs :
  E2e_model.Flow_shop.t -> tau:E2e_rat.Rat.t -> E2e_core.Single_machine.job array
(** EEDF's reduced instance on [P_1], on the rationals: each task's
    release and its deadline less [(m-1) tau]. *)

val bottleneck_jobs :
  E2e_model.Flow_shop.t -> bottleneck:int -> E2e_core.Single_machine.job array
(** Algorithm A's reduced instance on [P_b], on the rationals: the
    effective release and deadline of every task's subtask there. *)
