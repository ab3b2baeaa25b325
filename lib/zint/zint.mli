(** Arbitrary-precision signed integers.

    The canonical-form and factorization algorithms of the synthesis flow
    manipulate constants such as [2^m], [lambda!] and scaled filter
    coefficients exactly; native [int] overflows for realistic bit-widths, so
    this module provides a self-contained bignum implementation.

    Almost every value the flow meets fits a machine word, so a value [v]
    with [min_int < v <= max_int] is held as an immediate native int: it
    allocates nothing, and arithmetic on such values runs in native ints.
    Only a wider value (and [min_int], whose negation has no native form) is
    a sign-magnitude record of base [2^30] limbs.  An immediate [add],
    [sub] or [mul] that overflows moves to the limb code, and a limb result
    that fits comes back as an immediate, so there is one representation
    per value: [equal], [hash], and polymorphic equality or hashing of
    structures holding a [t], give the same answers whichever operation
    built it.  [hash] is the limb formula ([sign + 2] folded over the limbs
    of the magnitude, least significant first) for every value, immediate
    or not.  Polymorphic comparison does not follow numeric order; order
    values with [compare].

    All values are immutable.  [compare], [equal] and [hash] are consistent
    with each other. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt z] is [Some n] when [z] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val is_even : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** Truncated division, as for native [int]: the quotient rounds toward zero
    and the remainder has the sign of the dividend, with
    [a = q * b + r] and [|r| < |b|].
    @raise Division_by_zero when the divisor is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: the remainder is always non-negative. *)

val divexact : t -> t -> t
(** Division known to be exact.
    @raise Invalid_argument if the division leaves a remainder. *)

val divides : t -> t -> bool
(** [divides d a] is [true] when [d] divides [a] ([d] non-zero). *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val lcm : t -> t -> t

val pow : t -> int -> t
(** @raise Invalid_argument on a negative exponent. *)

val pow2 : int -> t
(** [pow2 m] is [2^m].  @raise Invalid_argument on negative [m]. *)

val factorial : int -> t
(** @raise Invalid_argument on negative input. *)

val val2 : t -> int
(** 2-adic valuation: the largest [k] with [2^k] dividing the value.
    @raise Invalid_argument on zero. *)

val erem_pow2 : t -> int -> t
(** [erem_pow2 z m] is [z mod 2^m] reduced to [[0, 2^m)]. *)

val num_bits : t -> int
(** Bit length of the magnitude; [num_bits zero = 0]. *)

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
