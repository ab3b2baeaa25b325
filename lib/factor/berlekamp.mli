(** Berlekamp's deterministic factorization of square-free polynomials
    over a small prime field.

    Builds the Frobenius matrix [Q] (row i = [x^(i*p) mod f]), computes
    the Berlekamp subalgebra as the nullspace of [Q^T - I], and splits
    [f] with [gcd(f, v - c)] over the basis vectors [v] and field
    constants [c].  Complexity is polynomial in [deg f] and [p], which is
    why the driver restricts itself to small primes.

    Not on the synthesis path: kept only for {!Factorize}, which serves
    the ["factor.factorize"] probe of perfbench's traced replay. *)

val factor : p:int -> Fp_poly.t -> Fp_poly.t list
(** Monic irreducible factors (with repetition impossible: the input must
    be square-free and coprime to its derivative mod p) of a non-constant
    polynomial; the list is deterministically ordered.
    @raise Invalid_argument on constant input. *)

val nullspace_dimension : p:int -> Fp_poly.t -> int
(** Dimension of the Berlekamp subalgebra = the number of irreducible
    factors (exposed for tests). *)
