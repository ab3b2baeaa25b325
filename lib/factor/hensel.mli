(** Hensel lifting: raise a factorization mod p to one mod p^k.

    Works with dense integer-coefficient polynomials reduced into
    [[0, m)] for the current modulus [m]; the driver gives it the monic
    modular factors from {!Berlekamp} and a target exponent derived from
    the coefficient bound.

    Not on the synthesis path: kept only for {!Factorize}, which serves
    the ["factor.factorize"] probe of perfbench's traced replay. *)

module Z := Polysynth_zint.Zint

type zpoly = Z.t array
(** Dense, least-significant first; no trailing-zero invariant is
    required at the interface. *)

val lift_factors :
  p:int -> target:Z.t -> zpoly -> Fp_poly.t list -> zpoly list * Z.t
(** [lift_factors ~p ~target f facs]: given primitive [f] with
    [f = lc(f) * prod facs (mod p)], the [facs] monic and pairwise coprime
    mod p, returns monic factors mod [m] (and [m] itself) where [m = p^k]
    is the smallest power of [p] that is [>= target], such that
    [f = lc(f) * prod factors (mod m)] and each returned factor reduces to
    its input mod p. *)

val mul : m:Z.t -> zpoly -> zpoly -> zpoly
(** Product reduced into [[0, m)] (used by the recombination step and the
    tests). *)

val pair_lift_check : p:int -> m:Z.t -> zpoly -> zpoly -> zpoly -> bool
(** Test helper: does [f = g * h (mod m)]? *)
