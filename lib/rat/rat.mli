(** Exact rational arithmetic.

    All task parameters in the flow-shop model (release times, deadlines,
    processing times) are rational numbers.  The forbidden-region
    computation of Garey, Johnson, Simons and Tarjan compares derived
    quantities such as [d - k * tau] exactly; floating point would make
    the optimality results of the paper unsound.  This module provides a
    small, total, normalised rational type over native integers.

    Values are kept in lowest terms with a positive denominator, so
    structural equality coincides with numeric equality. *)

type t = private { num : int; den : int }
(** A rational [num / den] with [den > 0] and [gcd |num| den = 1]. *)

exception Division_by_zero

exception Overflow
(** Raised whenever an operation's exact result (or a required
    intermediate, such as the cross-products of {!compare}) cannot be
    represented in native integers.  Silent wraparound would return a
    {e wrong} rational, which the exact-arithmetic guarantees of the
    schedulers cannot tolerate; operations on values small enough not to
    overflow (all task parameters in practice) never raise. *)

val make : int -> int -> t
(** [make num den] is the normalised rational [num / den].
    @raise Division_by_zero if [den = 0].
    @raise Overflow if [num] or [den] is [min_int] (magnitudes must stay
    representable after negation). *)

val of_int : int -> t
val zero : t
val one : t
val minus_one : t

val num : t -> int
val den : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on [zero]. *)

val abs : t -> t
val mul_int : t -> int -> t
val div_int : t -> int -> t

(** {1 Comparison} *)

val compare : t -> t -> int
(** Total order by exact value.  Operands sharing a denominator — the
    common case on solver hot paths, where values live on one time grid
    — are decided by an allocation- and multiplication-free numerator
    comparison ({!min} and {!max} inherit the fast path).  Operands with
    huge components are compared over the lcm of their denominators;
    when even those scaled numerators overflow (and the signs do not
    already decide), raises {!Overflow} rather than returning a wrong
    answer. *)

val equal : t -> t -> bool
val ( = ) : t -> t -> bool
val ( <> ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val sign : t -> int
val is_zero : t -> bool

(** {1 Infix arithmetic}

    Conventional symbols suffixed with [/] to avoid clashing with the
    integer operators when the module is opened locally. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t

(** {1 Rounding} *)

val floor : t -> int
(** Largest integer [<=] the rational. *)

val ceil : t -> int
(** Smallest integer [>=] the rational. *)

val is_integer : t -> bool

val is_multiple_of : t -> t -> bool
(** [is_multiple_of x q] is true when [x = k * q] for some integer [k].
    @raise Division_by_zero if [q] is zero. *)

(** {1 Conversion and printing} *)

val to_float : t -> float

val of_float : ?max_den:int -> float -> t
(** Best rational approximation with denominator at most [max_den]
    (default [1_000_000]), via continued fractions.  Intended for
    constructing test inputs from decimal literals, not for round-trips.
    @raise Invalid_argument on NaN or infinite input.
    @raise Overflow on finite magnitudes of [2^62] or more. *)

val of_decimal_string : string -> t
(** Parse ["3"], ["-2.75"], ["4/3"] style literals exactly.
    @raise Invalid_argument on malformed input, which includes a literal
    whose value or whose [10^digits] scale does not fit the 63-bit
    rationals (it never raises {!Overflow}). *)

val to_string : t -> string
(** ["num/den"], or just ["num"] for integers. *)

val write_int : Bytes.t -> int -> int -> int
(** [write_int b pos n] writes [string_of_int n]'s text into [b] at
    [pos] and returns the position after it: at most 20 bytes, the
    digits counted first and then written from the right, with no
    format parsing and no buffer between.  [min_int] included.  The
    one digit writer behind every rational the schedule, instance and
    reply renderings print.
    @raise Invalid_argument when [b] is too short. *)

val write : Bytes.t -> int -> t -> int
(** {!write_int} for {!to_string}'s text — sign, numerator and, unless
    the rational is an integer, ["/den"]: at most 41 bytes. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s text, through {!write}. *)

val add_int_to_buffer : Buffer.t -> int -> unit
(** Appends [string_of_int n]'s text, through {!write_int}. *)

val pp : Format.formatter -> t -> unit
(** Prints like {!to_string}. *)

val pp_decimal : Format.formatter -> t -> unit
(** Prints a short decimal rendering (exact when the denominator divides a
    power of ten, otherwise 4 decimal places). *)

(** {1 Aggregates} *)

val sum : t list -> t
val sum_array : t array -> t
