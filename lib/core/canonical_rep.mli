(** The canonical (falling-factorial) form as a structured expression.

    Each falling term [c * Y_k1(x_1)...Y_kd(x_d)] becomes a flat product of
    the shared base blocks [Y_2(v) = v*(v-1)] and the remaining linear
    chain factors [(v - 2), (v - 3), ...]; the canonical operand ordering
    of products then makes common prefixes such as [Y_2(x)*Y_2(y)] collapse
    in the DAG — exactly why the canonical form helps CSE (Section
    14.3.1). *)

module Poly := Polysynth_poly.Poly
module Expr := Polysynth_expr.Expr
module Canonical := Polysynth_finite_ring.Canonical

val rep : Canonical.ctx -> Blocktab.t -> Poly.t -> Expr.t
(** Expression of the canonical form of the polynomial.  Note that it is
    equal to the input only {e as a bit-vector function} on the ring (not
    as a polynomial over the integers). *)
