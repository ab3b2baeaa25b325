(** Common coefficient extraction — Algorithm 6 of the paper.

    Kernel/co-kernel factoring treats numeric coefficients as opaque
    literals, so it cannot see that [8x + 16y + 24z = 8(x + 2y + 3z)].  CCE
    fixes this with arithmetic on the coefficients themselves: compute the
    pairwise GCDs of the coefficients involved in multiplications, keep a
    GCD only when it equals one of its pair (extracting a strictly smaller
    divisor like [gcd 24 30 = 6] would not reduce the number of constant
    multiplications), and extract the surviving divisors from largest to
    smallest.  The multi-term quotients ("blocks") this exposes are the raw
    material for algebraic division. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

type result = {
  groups : (Z.t * Poly.t) list;
      (** [(g, b)] pairs meaning [g * b] with [g > 1] and [b] multi-term, in
          extraction order (decreasing [g]) *)
  residual : Poly.t;
      (** terms left untouched, including the constant addend *)
}

val extract : Poly.t -> result
(** [p = sum g_i * b_i + residual]. *)

val blocks : result -> Poly.t list
(** The extracted quotient blocks [b_i]. *)

val candidate_gcds : Z.t list -> Z.t list
(** The filtered, decreasing GCD list of Algorithm 6 (exposed for tests):
    pairwise GCDs of the input, keeping [g] only when [g > 1] and [g]
    equals one of the two coefficients that produced it. *)
