(** Canonical forms of polynomial functions over finite rings of the form
    [Z_2^n1 x ... x Z_2^nd -> Z_2^m] (Section 14.3.1 of the paper, after
    Chen 1996).

    Every polynomial function has a unique representative
    [F = sum_k c_k * Y_k1(x_1)...Y_kd(x_d)] with [k_i < mu_i] and
    [0 <= c_k < 2^m / gcd(2^m, prod k_i!)], where [Y_k] is the falling
    factorial and [mu_i = min(2^n_i, lambda)] with [lambda] the least
    integer whose factorial is divisible by [2^m].

    Besides being canonical (two polynomials represent the same bit-vector
    function iff their reduced forms are structurally equal), the form tends
    to expose shared [Y_k(x)] building blocks across the polynomials of a
    system, which the CSE stage can then merge. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly
module Monomial := Polysynth_poly.Monomial

(** {1 Ring context} *)

type ctx

val make_ctx : out_width:int -> ?var_widths:(string * int) list -> unit -> ctx
(** [out_width] is [m]; variables absent from [var_widths] default to
    [out_width] bits.  @raise Invalid_argument on non-positive widths. *)

val out_width : ctx -> int
val var_width : ctx -> string -> int
val mu : ctx -> string -> int

(** {1 Falling-factorial representation}

    A falling-basis polynomial reuses {!Poly.t} structure, but a monomial
    exponent [k] on variable [x] denotes [Y_k(x)], not [x^k]. *)

type falling

val falling_terms : falling -> (Z.t * Monomial.t) list

val to_falling : Poly.t -> falling
(** Exact basis change via Stirling numbers of the second kind. *)

val of_falling : falling -> Poly.t
(** Exact inverse basis change via signed Stirling numbers of the first
    kind. *)

(** {1 Canonical reduction} *)

val vanishing_term : ctx -> Monomial.t -> bool
(** True when some [k_i >= mu_i], i.e. the falling term is the zero function
    on the ring. *)

val term_modulus : ctx -> Monomial.t -> Z.t
(** [2^m / gcd(2^m, prod k_i!)]: the modulus at which the coefficient of the
    given falling term repeats. *)

val canonicalize : ctx -> Poly.t -> falling
(** The unique reduced falling form of the function computed by the
    polynomial. *)
