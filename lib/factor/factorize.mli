(** Complete factorization of univariate polynomials over the integers
    (Berlekamp + Hensel lifting + Zassenhaus recombination).

    This rounds out the computer-algebra substrate: square-free
    factorization splits multiplicities, {!Berlekamp} factors the
    square-free parts modulo a well-chosen small prime, {!Hensel} lifts
    the modular factors above the Mignotte-style coefficient bound, and a
    subset search recombines them into true integer factors.

    Not on the synthesis path: no representation builder calls it.  It is
    kept, with {!Berlekamp}, {!Hensel} and {!Fp_poly}, only for the
    ["factor.factorize"] probe of perfbench's traced replay, and goes
    when that probe is dropped. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

type factorization = {
  unit_part : Z.t;  (** integer content with the overall sign *)
  factors : (Poly.t * int) list;
      (** irreducible (over Q) primitive factors with positive leading
          coefficients and their multiplicities, deterministically
          ordered *)
}

val factor : string -> Poly.t -> factorization
(** [factor v u] factors [u], which must be univariate in [v].
    @raise Invalid_argument on zero or non-univariate input. *)

val expand : factorization -> Poly.t

val is_irreducible : string -> Poly.t -> bool
(** Irreducibility over Q of a non-constant univariate polynomial
    (multiplicities and content ignored). *)

val coefficient_bound : string -> Poly.t -> Z.t
(** The bound [2^(deg+1) * (deg+1) * max|coeff| * |lc|] used to size the
    Hensel modulus (any true factor's coefficients are below it). *)
