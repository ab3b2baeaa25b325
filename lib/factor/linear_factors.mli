(** Rational-root extraction: the linear factors of a univariate view.

    For a polynomial seen as univariate in one variable (with integer
    coefficients), every linear factor [a*v - b] has [b/a] among the
    rational candidates [divisors of trailing coefficient / divisors of
    leading coefficient].  Both coefficients are factored by trial
    division up to the prime bound 65 536, so every coefficient below
    [2^32] factors completely.  A coefficient that leaves a larger
    cofactor with no prime factor up to the bound gives no candidates, and
    so do two coefficients with more than 4096 (numerator, denominator)
    divisor pairs; then only the root [0] can be found.  The roots only
    seed block discovery (richer linear building blocks such as [2x - 3]
    feed algebraic division); no result's correctness rests on finding
    them all. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

val roots : string -> Poly.t -> (Z.t * Z.t) list
(** [roots v u] lists the rational roots [b/a] of [u] as univariate in [v]
    (requires the coefficients in [v] to be constants, i.e. [u] univariate;
    pairs are coprime with [a > 0], each listed once regardless of
    multiplicity).  Complete when the trailing and leading coefficients
    (after stripping the root [0]) factor within the trial bound and the
    pair limit above.
    @raise Invalid_argument if [u] is zero or mentions other variables. *)

val linear_factors : string -> Poly.t -> (Poly.t * int) list * Poly.t
(** [linear_factors v u = (factors, rest)] with
    [u = rest * prod (a_i*v - b_i)^k_i], the factors primitive with positive
    leading coefficient, and [rest] free of the rational roots in [v] that
    {!roots} finds. *)
