(** Random instance generation for the differential fuzzer.

    One generator per optimality claim of the paper: identical-length
    flow shops for EEDF, single-loop recurrence shops for Algorithm R,
    homogeneous sets for Algorithm A, and arbitrary sets for Algorithm H
    and the portfolio.  Every instance is kept inside the guards of the
    class's exhaustive oracle ({!E2e_baselines.Branch_bound},
    {!E2e_baselines.Exhaustive}, {!E2e_baselines.Exhaustive_recurrence}),
    so the differential comparison is decidable, and every generator is a
    pure function of the {!E2e_prng.Prng.t} it is handed — the campaign
    driver derives one stream per trial with {!E2e_prng.Prng.of_path},
    which makes results independent of how trials are spread over
    domains.

    [Eedf_fast] is different in kind: it feeds the engine-vs-engine
    differential ({!Single_machine_ref} against
    {!E2e_core.Single_machine}), needs no exhaustive oracle, and so
    generates much larger identical-length instances (up to 40 tasks)
    than the optimality classes can afford.  Half of its draws sit at
    the edge of the engine's integer time grid ({!edge_of_grid}). *)

type model_class = Eedf | R | A | H | Eedf_fast

val all : model_class list
(** Every class, in the fixed campaign order
    [Eedf; R; A; H; Eedf_fast]. *)

val name : model_class -> string
(** CLI / corpus spelling: ["eedf"], ["r"], ["a"], ["h"],
    ["eedf-fast"]. *)

val of_name : string -> model_class option

val code : model_class -> int
(** Stable per-class component for {!E2e_prng.Prng.of_path} paths, so
    the classes draw statistically independent trial streams from one
    campaign seed. *)

val instance : E2e_prng.Prng.t -> model_class -> E2e_model.Recurrence_shop.t
(** One random instance of the class.  Traditional classes (EEDF, A, H)
    return shops with the identity visit sequence; [R] returns a
    single-loop recurrence shop with identical unit times and a common
    release.  Roughly a quarter of the instances get one task's window
    tightened below its total processing time, so the claimed-infeasible
    branches of the solvers are exercised too. *)

val edge_of_grid : E2e_prng.Prng.t -> over:bool -> E2e_model.Flow_shop.t
(** An identical-length shop whose releases carry one large prime
    denominator and whose deadlines carry another, shifted by the
    integer offset that puts the single-machine engine's grid bound
    (B = 4M + (n+1)T against [max_int / 2], see
    {!E2e_core.Single_machine}) of its EEDF reduction just under the
    limit ([over:false]: the native-int grid runs on 60-bit magnitudes)
    or just over it ([over:true]: every entry point refuses the instance
    with [Rat.Overflow]).  Every rational the scan-based reference forms
    stays within the lcm of two denominators, so it answers both. *)
