(** Discovery of linear building blocks: the divisor candidates for
    algebraic division (Section 14.4.3).

    The paper restricts algebraic divisors to the {e linear} expressions
    exposed by the other transformations, because linear blocks cannot be
    decomposed further (they must be implemented anyway) and are cheap in
    hardware.  Candidates come from:
    - the quotient blocks of common coefficient extraction;
    - the (primitive parts of) kernels found by cube extraction;
    - linear square-free factors, which include every linear
      perfect-power root ([x^2 + 2xy + y^2] contributes [x + y]);
    - rational-root linear factors of univariate polynomials.

    All candidates are normalized (primitive, positive leading coefficient)
    and deduplicated, then ranked by how many polynomials of the system they
    divide usefully. *)

module Poly := Polysynth_poly.Poly

val is_linear : Poly.t -> bool
(** Total degree 1 (any number of variables, constant addend allowed). *)

val discover : ?max_blocks:int -> Poly.t list -> Poly.t list
(** Linear building blocks of the system, best-ranked first; [max_blocks]
    (default 16) bounds the list. *)
