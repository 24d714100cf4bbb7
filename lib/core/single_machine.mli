(** Nonpreemptive scheduling of equal-length jobs on one machine with
    arbitrary rational release times and deadlines.

    This is the optimal O(n^2)-ish building block beneath every flow-shop
    algorithm in the paper: the earliest-deadline-first rule made optimal
    by the {e forbidden regions} of Garey, Johnson, Simons and Tarjan
    (SIAM J. Comput. 10(2), 1981).  A forbidden region is an open
    interval in which {e no} job may start: if the [m] jobs with release
    [>= r] and deadline [<= d] are packed as late as possible before [d]
    (avoiding regions already found), starting at [c], then any job
    starting in [(c - tau, r)] would keep the machine busy past [c] and
    make those [m] jobs late.  EDF that only dispatches outside the
    forbidden regions ("modified release times") is optimal.

    One engine computes everything here: one backward packing pass per
    distinct release, each read off a lazy min segment tree over
    deadline positions, builds the regions in a sorted
    {!E2e_ds.Interval_set}; a two-heap EDF loop (pending jobs by
    release, ready jobs by deadline) dispatches around them.
    {!schedule}, {!forbidden_regions} and {!edf_schedule_no_regions} are
    from-scratch runs of it.

    {b The integer time grid.}  The engine runs on native ints: its one
    int entry point {!schedule_grid} (with the plain-EDF ablation
    {!edf_grid_no_regions}) takes jobs already scaled by some L, and the
    flow-shop algorithms call it on their shop's {!E2e_model.Grid}.  The
    rational entry points first compute L, the lcm of the denominators
    of [tau] and of every release and deadline, and scale the instance
    by L.  In scaled units let M be the largest release or deadline
    magnitude and T = tau L; every value the sweep and the dispatch form
    (leaf values, the region measure and threshold, the [g^k] walks and
    their floor divisions, dispatch instants) has magnitude at most
    B = 4M + (n+1)T — the proof is with {!E2e_model.Grid}.  Every
    operation commutes with the scaling and the floor division is exact
    on integers, so the int run computes exactly L times the values of
    the same computation on rationals; each start and region endpoint is
    mapped back once with [Rat.make v L], and every [single_machine.*]
    event field prints that rational.  The [single_machine.schedule]
    span's [grid] field is the lcm of the denominators of [tau] and of
    the jobs' releases and deadlines.

    {b Refusal.}  When L, a scaled value or B passes
    {!E2e_model.Grid.limit} ([max_int / 2], a further factor of two of
    headroom, every step of the check overflow-checked) — say, many
    coprime large denominators — the instance is refused with
    {!E2e_rat.Rat.Overflow}, the exception the 63-bit rationals raise
    for values that do not fit.  No answer is ever computed from a
    wrapped int.

    The historical scan-based implementation is kept verbatim as
    [E2e_fuzz.Single_machine_ref], and the [eedf-fast] differential-fuzz
    class checks the engine against it on every output, with a quarter
    of its draws just under the grid bound and a quarter just over it
    (which every entry point must refuse). *)

type rat = E2e_rat.Rat.t

type job = { id : int; release : rat; deadline : rat }
(** [id] is the caller's index; results are reported in input order. *)

type region = { left : rat; right : rat }
(** The open interval [(left, right)]: starting strictly inside is
    forbidden; starting exactly at either endpoint is allowed. *)

val pp_region : Format.formatter -> region -> unit

val forbidden_regions :
  tau:rat -> job array -> (region list, [ `Infeasible ]) result
(** All forbidden regions, sorted by left endpoint, pairwise disjoint.
    [`Infeasible] when some backward packing already proves that no
    schedule can meet all deadlines.
    @raise Invalid_argument when [tau <= 0].
    @raise E2e_rat.Rat.Overflow when the instance does not fit the
    integer grid. *)

val schedule :
  tau:rat -> job array -> (rat array, [ `Infeasible ]) result
(** Optimal start times (input order): EDF over the forbidden regions.
    [Error `Infeasible] means no feasible schedule exists at all — the
    algorithm is optimal.
    @raise Invalid_argument when [tau <= 0] and [jobs] is non-empty.
    @raise E2e_rat.Rat.Overflow when the instance does not fit the
    integer grid. *)

val edf_schedule_no_regions : tau:rat -> job array -> (rat array, [ `Deadline_missed of int ]) result
(** Plain priority-driven EDF without forbidden regions — the ablation
    baseline showing why the regions are needed.  Fails with the first
    job whose deadline is missed.
    @raise Invalid_argument when [tau <= 0].
    @raise E2e_rat.Rat.Overflow when the instance does not fit the
    integer grid. *)

val schedule_grid :
  scale:int ->
  tau:int ->
  release:int array ->
  deadline:int array ->
  (int array, [ `Infeasible ]) result
(** {!schedule} on jobs already on a grid of scale [scale] (L): job [i]
    has release [release.(i) / L] and deadline [deadline.(i) / L], every
    job takes [tau / L].  Returns the starts times L, by position.  The
    [single_machine.*] span and events print the rationals.
    @raise Invalid_argument when [tau <= 0] and there are jobs, or when
    the two arrays differ in length.
    @raise E2e_rat.Rat.Overflow when B passes the limit. *)

val edf_grid_no_regions :
  tau:int ->
  release:int array ->
  deadline:int array ->
  (int array, [ `Deadline_missed of int ]) result
(** {!edf_schedule_no_regions} on grid jobs; the error carries the
    position of the first job whose deadline is missed.
    @raise Invalid_argument when [tau <= 0] or the two arrays differ in
    length.
    @raise E2e_rat.Rat.Overflow when B passes the limit. *)

val feasible_starts : tau:rat -> job array -> rat array -> bool
(** Independent check that the given start times respect releases,
    deadlines and mutual exclusion. *)

val brute_force_feasible : tau:rat -> job array -> bool
(** Exhaustive search over all job orders (earliest-start timing per
    order, which is optimal for a fixed order).  Exponential; for tests
    on small instances only. *)
