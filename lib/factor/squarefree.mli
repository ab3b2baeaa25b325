(** Square-free factorization (Section 14.3.2).

    Every [u] in [Z\[x_1..x_n\]] factors uniquely as
    [u = c * s_1 * s_2^2 * ... * s_m^m] with the [s_i] square-free, pairwise
    coprime and primitive with positive leading coefficients.  The synthesis
    flow uses the factored form both as a candidate representation (fewer
    operations when non-trivial powers exist) and as a source of building
    blocks such as [(x + y)] from [x^2 + 2xy + y^2]. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

type factorization = {
  unit_part : Z.t;  (** the integer content, with the overall sign *)
  factors : (Poly.t * int) list;
      (** [(s, k)] pairs with [k >= 1], increasing [k], each [s]
          non-constant *)
}

val squarefree : Poly.t -> factorization
(** @raise Invalid_argument on the zero polynomial. *)

val is_trivial : factorization -> bool
(** True when the factorization is just [1 * u^1] (no structure found). *)

val perfect_power_root : Poly.t -> (Poly.t * int) option
(** [perfect_power_root u = Some (v, k)] with the largest [k >= 2] such that
    [u = v^k] (e.g. [x^2 + 2xy + y^2] gives [(x + y, 2)]); [None] when [u]
    is not a perfect power.

    Most polynomials are not powers, so a value test runs before the
    square-free factorization and answers [None] for most of them at the
    cost of two evaluations.  It is sound: if [u = v^k], then the leading
    monomial of [u] is that of [v] to the [k] (the monomial order is
    multiplicative), so [k] divides each of its exponents, and for a prime
    [q] dividing [k], [u(a) = (v^(k/q)(a))^q] is the [q]-th power of an
    integer at every integer point [a].  So [u] is factorized only when
    some prime dividing every exponent of its leading monomial leaves it a
    [q]-th power at two fixed points (the [i]-th variable in name order
    set to [2i + 3], then to [-(3i + 2)]); a [u] that fails cannot be a
    perfect power, and the result equals that of factorizing it. *)

val integer_root : Z.t -> int -> Z.t option
(** [integer_root n k] is the exact [k]-th root of [n] when it exists
    ([k >= 1]; negative [n] allowed for odd [k]).  A value below [2^k] is
    answered without a power; otherwise Newton's iteration falls from
    [2^ceil(b / k)] (at most twice the root of a [b]-bit value) to the
    floor of the root, with one power [x^(k-1)] per step and one division
    of [n] per step above the floor: at most about [min(k, root)] steps far
    above the root, where a step lowers [x] by about [x / k] and at least
    1, then a few more as the error squares. *)
