(** Differential fuzzing of the admission service.

    Each trial generates a random request log — fresh submissions,
    permuted resubmissions (canonical-cache exercisers), duplicate
    submissions, incremental adds, deliberately infeasible sets,
    queries and drops — and runs it through two interpreters.  A share
    of submitted and added tasks is hostile: magnitudes near 2^62 and
    large coprime denominators, whose sums overflow 63 bits, so both
    interpreters must answer those requests [error shop=<s> internal]
    alike and go on:

    - the {b batched} engine ({!E2e_serve.Batcher.process_log}) with
      the canonical solver cache enabled and solves fanned out over
      [jobs] worker domains, and
    - the {b sequential reference} ({!E2e_serve.Admission.apply} folded
      over the log, cache off, one domain).

    Every reply must agree between the two runs: same verdict, shop,
    task count, certificate, makespan (schedules are compared through
    the one-line reply rendering, which excludes the permutation-
    dependent row order).  A disagreement is shrunk by greedily
    deleting requests from the log while the mismatch persists.

    Trial [t] draws from [Prng.of_path [| seed; code; t |]] with
    {!code} disjoint from the model-class codes of {!Gen}, and trials
    run sequentially (the batcher under test owns the worker pool), so
    campaign output is byte-identical at every [jobs] value. *)

type finding = {
  trial : int;
  index : int;  (** First request whose replies disagree (in the shrunk log). *)
  request : string;  (** That request, in the wire format. *)
  batched : string;  (** Its reply from the batched cached engine. *)
  reference : string;  (** Its reply from the sequential cache-free reference. *)
  log : string list;  (** The whole shrunk log, one request per line. *)
  shrink_steps : int;
}

type report = {
  seed : int;
  trials : int;
  agreed : int;
  findings : finding list;  (** In trial order. *)
}

val code : int
(** Stable {!E2e_prng.Prng.of_path} component for the [serve] class,
    disjoint from every {!Gen.code}. *)

val run : ?jobs:int -> ?max_shrink:int -> seed:int -> trials:int -> unit -> report
(** One campaign.  [jobs] (default 1) is the batched engine's worker
    count; [max_shrink] bounds accepted deletions per finding. *)

val pp_report : Format.formatter -> report -> unit
(** One summary line, then every finding with its shrunk request log —
    deterministic, so campaign output can be compared byte-for-byte
    across [-j] values. *)
