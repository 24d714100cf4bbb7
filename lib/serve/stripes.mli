(** A striped batcher: [n] independent {!Batcher.t} instances with
    requests routed by a deterministic hash of the shop name.

    {b The striping invariant: same shop ⇒ same stripe.}  Two requests
    on one flow shop are order-dependent (the second reads the first's
    committed state), so they must stay on one stripe, where the
    batcher's FIFO prefix rule keeps their commits sequential.
    Requests on distinct shops are independent by construction — an
    admission decision reads only its own shop's committed set — so
    they may drain on different stripes, and {!Server.serve_tcp} runs
    one drainer domain per stripe.

    {b Determinism at any stripe count.}  The stripe map is a pure
    function of the shop name, each stripe's solver cache is
    transparency-verified (cache-on and cache-off replies agree by
    construction, so re-partitioning cache contents across stripes
    cannot change a reply), and the transport writes each connection's
    replies strictly in push order whichever stripe fills the slot.
    Hence per-request replies — and each connection's reply log — are
    byte-identical across stripe counts; {!process_log} is the replay
    harness the determinism tests compare.

    {b Capacity.}  Queue capacity and solver-cache capacity are {e per
    stripe}: [n] stripes hold up to [n × cache_capacity] canonical
    entries in aggregate.  This is the same aggregate-capacity effect
    the cluster tier gets from sticky sharding, one process deep.

    Request ids are partitioned — stripe [k] of [n] hands out ids
    [k + 1, k + 1 + n, …] — so ids stay unique across stripes and the
    per-id trace-schema invariants hold at any stripe count. *)

type t

val create : ?config:Batcher.config -> ?stripes:int -> unit -> t
(** [stripes] (default [1]) independent batchers, each with [config]
    (default {!Batcher.default_config}).
    @raise Invalid_argument if [stripes < 1]. *)

val count : t -> int
val batchers : t -> Batcher.t array

val batcher : t -> int -> Batcher.t
(** The stripe at index [k] — transports lock and step each stripe
    independently. *)

val config : t -> Batcher.config
(** The shared per-stripe configuration. *)

val stripe_index : stripes:int -> string -> int
(** The pure stripe map: FNV-1a (with a murmur-style finalizer) of the
    shop name, mod [stripes].  [0] whenever [stripes <= 1]. *)

val stripe_of : t -> Admission.request -> int

val submit : t -> Admission.request -> [ `Queued of int | `Overloaded ]
(** Route to the shop's stripe and submit there; [`Queued k] names the
    stripe so the transport can kick stripe [k]'s drainer. *)

val note_read_error : t -> unit
(** Count one hard transport read error (a reset or half-closed peer,
    as distinct from a clean EOF) against the service these stripes
    back.  Every session over the same [t] — stdio or TCP — shares the
    count. *)

val read_errors : t -> int
(** Hard transport read errors counted so far. *)

val pending : t -> int
(** Total queued requests across stripes. *)

val last_id : t -> int
(** The highest request id handed out by any stripe ([0] initially). *)

val service_stats : t -> Batcher.service_stats
(** Aggregated over stripes: counters sum, [max_batch] is the max, and
    the per-shop lists merge (shops are disjoint across stripes). *)

val cache_stats : t -> Cache.stats option
(** Summed over stripes ([size] is the aggregate resident entries);
    [None] when the cache is disabled. *)

val keyer_stats : t -> Cache.Keyer.stats

val process_log : t -> Admission.request list -> Batcher.outcome array
(** Replay a whole request log: submit every request in log order to
    its stripe (requests past a stripe's queue capacity get
    {!Batcher.Overloaded}), drain every stripe, and scatter replies
    back to log positions.  [outcomes.(i)] answers request [i] — the
    array the stripe-determinism tests compare across stripe counts. *)
