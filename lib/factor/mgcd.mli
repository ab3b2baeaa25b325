(** Multivariate polynomial GCD over [Z\[x_1, ..., x_n\]].

    Implemented with the classic primitive polynomial-remainder-sequence
    recursion (Cohen 2003): pick a main variable, split content and primitive
    part (whose content computation recurses over the remaining variables),
    run a primitive PRS on the primitive parts.  Adequate for the small,
    low-degree polynomials of datapath synthesis. *)

module Poly := Polysynth_poly.Poly

val gcd : Poly.t -> Poly.t -> Poly.t
(** Greatest common divisor, normalized to a positive leading coefficient
    (graded-lex leading term).  [gcd p 0 = |p|]; [gcd 0 0 = 0]. *)

val pseudo_rem : string -> Poly.t -> Poly.t -> Poly.t
(** [pseudo_rem v a b] is the pseudo-remainder of [a] by [b] viewed as
    univariate polynomials in [v]: the remainder of [lc_v(b)^k * a] divided
    by [b], which requires no coefficient divisions.
    @raise Division_by_zero when [b] has degree 0 in [v] or is zero. *)

val content_in : string -> Poly.t -> Poly.t
(** Content w.r.t. one variable: the GCD of the coefficients of the powers
    of [v] (a polynomial in the remaining variables). *)

val primitive_part_in : string -> Poly.t -> Poly.t
(** [p = content_in v p * primitive_part_in v p]. *)
