(** Differential fuzzing of the admission service.

    Each trial generates a random request log — fresh submissions,
    permuted resubmissions (canonical-cache exercisers), duplicate
    submissions, incremental adds, deliberately infeasible sets,
    queries and drops — and checks it twice.

    {b In process.}  The log runs through two interpreters:

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

    {b Through the wire.}  The same log, rendered with
    {!E2e_serve.Protocol.render_request} and mixed with malformed lines,
    one literal one digit past each of the scanner's bounds, comment
    lines up to exactly {!E2e_serve.Wire.max_line} bytes and, in a
    quarter of the trials, a final line one byte past it, is written to
    a file and served by {!E2e_serve.Server.session} — the real [Wire]
    reader, the scanner and the striped batcher.  Every line must get
    exactly the reply that [Protocol.parse_request] and the sequential
    reference give it ([error shop=- request line too long] for the
    oversized line, and nothing after it), every drawn request whose
    literals are in range and on their grid must parse back to itself,
    every other one must be refused with a typed [out of range] error,
    a past-bound line must get its exact typed reply, and no request may
    be answered [internal].  A share of submitted and added tasks is
    hostile so that both kinds of refusal occur: magnitudes near 2^62
    and denominators past 10^9, and small times on several prime
    denominators below 10^9, in range but off the grid together.  Wire
    findings are reported unshrunk.

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
