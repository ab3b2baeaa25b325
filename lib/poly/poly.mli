(** Sparse multivariate polynomials with {!Polysynth_zint.Zint} (exact
    integer) coefficients.

    Terms are kept sorted in descending graded-lex order with non-zero
    coefficients, so structural equality coincides with mathematical
    equality. *)

module Z := Polysynth_zint.Zint

type t

(** {1 Construction} *)

val zero : t
val one : t
val const : Z.t -> t
val of_int : int -> t
val var : ?exp:int -> string -> t
val term : Z.t -> Monomial.t -> t
val of_terms : (Z.t * Monomial.t) list -> t
(** Combines duplicate monomials and drops zero coefficients. *)

val monomial : Monomial.t -> t

val of_sorted_terms : (Z.t * Monomial.t) list -> t
(** Trusted O(1) constructor: the caller guarantees the terms are already
    in strictly descending graded-lex order with non-zero coefficients —
    e.g. the image of [terms p] under a strictly order-preserving monomial
    map, such as division of every term by a common cube.  Use
    {!of_terms} whenever that is not certain. *)

(** {1 Observation} *)

val terms : t -> (Z.t * Monomial.t) list
(** Descending graded-lex order. *)

val num_terms : t -> int
val is_zero : t -> bool
val is_const : t -> bool
val to_const_opt : t -> Z.t option
val coeff : t -> Monomial.t -> Z.t
val constant_term : t -> Z.t

val leading : t -> Z.t * Monomial.t
(** @raise Invalid_argument on the zero polynomial. *)

val degree : t -> int
(** Total degree; [-1] for the zero polynomial. *)

val degree_in : string -> t -> int
val vars : t -> string list
(** Sorted, without duplicates. *)

val mentions : string -> t -> bool

val equal : t -> t -> bool
(** Structural equality, which is mathematical equality; [true] at once
    on a physically equal value. *)

val compare : t -> t -> int

val hash : t -> int
(** Non-negative, consistent with {!equal}, and mixed term by term so
    that its low bits, which [Hashtbl] picks buckets from, spread over
    polynomials that differ only in a small coefficient or exponent.  The
    value decides no output: no table keyed by polynomials (the
    algebraic-division memo, the kernelling memo) is ever iterated. *)

(** {1 Ring operations} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_scalar : Z.t -> t -> t
val mul_term : Z.t -> Monomial.t -> t -> t
val pow : t -> int -> t
(** @raise Invalid_argument on a negative exponent. *)

val add_list : t list -> t

(** {1 Division and content} *)

val div_exact : t -> t -> t option
(** [div_exact a b] is [Some q] when [a = q*b] exactly over [Z]. *)

val div_rem : t -> t -> t * t
(** Multivariate division with remainder: [div_rem a b = (q, r)] with
    [a = q*b + r], where no term of [r] is reducible by the leading term of
    [b] (monomial and coefficient divisibility).  The running remainder's
    leading term is reduced while it is reducible and moved to [r] while it
    is not, which over [Z] fixes [(q, r)]: [3x / (2x + 1)] is [(0, 3x)].
    [r] may share its tail with [a]: once nothing left is reducible, that
    part is returned as it is, so a division with a zero quotient returns
    [a] itself as the remainder.
    @raise Division_by_zero when [b] is zero. *)

val divides : t -> t -> bool

val content : t -> Z.t
(** Non-negative gcd of all coefficients; [0] for the zero polynomial. *)

val primitive_part : t -> t
(** [p = content p * primitive_part p] with the leading coefficient of the
    primitive part positive.  Zero maps to zero. *)

val div_scalar_exact : t -> Z.t -> t
(** @raise Invalid_argument when some coefficient is not divisible. *)

(** {1 Calculus, substitution, evaluation} *)

val derivative : string -> t -> t

val eval : (string -> Z.t) -> t -> Z.t

val eval_partial : (string * Z.t) list -> t -> t
(** Substitute constants for some of the variables. *)

val subst : string -> t -> t -> t
(** [subst x q p] replaces every occurrence of variable [x] in [p] by the
    polynomial [q]. *)

val shift : (string * Z.t) list -> t -> t
(** [shift [(x, c); ...] p] substitutes [x + c] for [x] (used by the
    Savitzky-Golay window generator). *)

(** {1 Univariate views} *)

val coeffs_in : string -> t -> (int * t) list
(** [coeffs_in x p] writes [p = sum_k c_k(other vars) * x^k] and returns the
    non-zero [(k, c_k)] pairs in increasing [k]. *)

val of_coeffs_in : string -> (int * t) list -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
