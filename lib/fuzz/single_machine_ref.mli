(** The historical scan-based single-machine EEDF engine, retained
    verbatim (minus telemetry) as the independent differential reference
    for the one engine in {!E2e_core.Single_machine}.

    Forbidden regions are built by the transparent release x deadline
    pair enumeration over linear job scans (O(n^3)), regions live in a
    sorted list folded over at every query, and the EDF dispatch rescans
    every job per dispatch (O(n^2)).  Slow but simple — exactly what the
    production engine must agree with byte-for-byte.  The [eedf-fast]
    fuzz class ({!Oracle}) compares the two engines' region lists,
    optimal schedules and plain-EDF ablations for exact rational
    equality on random identical-length instances.

    Also the baseline timed by [make bench-core]: the speedup column in
    [BENCH_core.json] is new engine vs this module. *)

type rat = E2e_rat.Rat.t
type job = { id : int; release : rat; deadline : rat }
type region = { left : rat; right : rat }

val forbidden_regions : tau:rat -> job array -> (region list, [ `Infeasible ]) result
(** All forbidden regions, sorted by left endpoint, pairwise disjoint. *)

val schedule : tau:rat -> job array -> (rat array, [ `Infeasible ]) result
(** Optimal start times (input order): EDF over the forbidden regions. *)

val edf_schedule_no_regions :
  tau:rat -> job array -> (rat array, [ `Deadline_missed of int ]) result
(** Plain priority-driven EDF without forbidden regions. *)
