(** Shard registry: membership, consistent-hash routing and liveness.

    The dispatcher's map from shop names to shard addresses.  Shards
    sit on a consistent-hash ring ([vnodes] virtual positions each,
    FNV-1a); a shop routes to the first shard at or after its own hash
    position, walking forward past dead shards.  Consequences:

    - {b stickiness}: all requests for a shop land on the same shard
      while it lives — the shop's committed admission state lives
      wholly on that shard;
    - {b failover}: when a shard dies, its shops move to the next live
      shard in hash order (where they are admitted fresh) and {e no
      other shop moves};
    - {b determinism}: routing is a pure function of the membership +
      liveness state, never of request history.

    Liveness is two-sided: the status checker reports probe outcomes
    ({!note_probe}; [fail_threshold] consecutive failures mark a shard
    dead, one success revives it), and upstream connections report
    hard I/O errors ({!report_down}), which mark a shard dead
    immediately.  All operations are thread-safe. *)

type state = Live | Dead

type entry = private {
  id : string;  (** ["host:port"] — the registration key. *)
  host : string;
  port : int;
  mutable state : state;
  mutable fails : int;  (** Consecutive probe failures. *)
  mutable reports : int;  (** {!report_down} calls so far. *)
}

type t

val fnv1a : string -> int
(** The ring hash (FNV-1a with a murmur3-style finalizer, folded into
    the positive int range) — exposed for tests.  The finalizer
    matters: ring inputs share long prefixes and plain FNV-1a would
    cluster them on one arc. *)

val parse_id : string -> (string * int) option
(** Parse ["host:port"]; [None] on malformed input. *)

val id_of : host:string -> port:int -> string

val default_vnodes : int
(** 64 — balances shop spread (±10%-ish at 4 shards) against ring
    size. *)

val create : ?fail_threshold:int -> ?vnodes:int -> (string * int) list -> t
(** A registry over the given static [(host, port)] shards, all
    initially [Live].  Duplicates are collapsed.  [fail_threshold]
    (default 3) is the consecutive-probe-failure count that marks a
    shard dead.  @raise Invalid_argument on non-positive parameters. *)

val add : t -> host:string -> port:int -> [ `Added | `Already ]
(** Dynamic registration ([ctl/1 register]).  A re-registered shard
    keeps its entry ([`Already]); use {!note_probe} to revive it. *)

val remove : t -> string -> bool
(** Deregister by id; [false] when unknown. *)

val find_opt : t -> string -> entry option

val route : t -> string -> entry option
(** The live shard owning this shop, walking past dead shards ([None]
    when no shard is live).  Bumps the failover counter when the
    shop's home shard is dead. *)

val home : t -> string -> entry option
(** The shard that would own this shop if every shard were live —
    {!route} = {!home} in a fully-live cluster (exposed for tests and
    balance accounting). *)

val note_probe :
  ?since:int -> t -> string -> ok:bool -> [ `Died | `Revived | `Unchanged | `Unknown ]
(** Record one status-checker probe outcome.  [since] is the shard's
    [reports] count read when the probe began: a success is ignored
    when a {!report_down} came after that, since the shard may have
    answered just before it failed. *)

val report_down : t -> string -> bool
(** Mark a shard dead immediately (hard upstream I/O error); [true]
    when this call changed its state. *)

val snapshot : t -> (string * state * int) list
(** [(id, state, consecutive fails)] per shard, sorted by id. *)

val live : t -> entry list

type stats = {
  shards : int;
  live_shards : int;
  failovers : int;  (** Routes whose home shard was dead. *)
  deaths : int;
  revivals : int;
}

val stats : t -> stats
