(** Algebraic division by linear building blocks (Section 14.4.3) and the
    recursive decomposition it drives.

    Given the divisor set exposed by CCE, cube extraction and square-free
    factorization, [decompose] rewrites a polynomial as the cheapest of:
    - its direct sum-of-products form;
    - integer content times a decomposed primitive part;
    - a perfect power of a (typically linear) root;
    - [d * Q + R] for a divisor [d], with [Q] and [R] decomposed
      recursively — this is the move that turns
      [13x^2 + 26xy + 13y^2 + 7x - 7y + 11] into [13*d1^2 + 7*d2 + 11];
    - co-kernel factoring [c * K + rest] with [K] decomposed recursively.

    Divisors used by the chosen form are registered in the block table and
    appear as variables in the result. *)

module Poly := Polysynth_poly.Poly
module Expr := Polysynth_expr.Expr

type session
(** A memo from polynomial to its decomposition, shared by every call on
    the session.  An entry keeps the result of the first call that reached
    the polynomial, at whatever recursion depth that was, so a caller that
    shares one session across polynomials fixes the order of its calls:
    {!Represent.build} fills one session per system, polynomial by
    polynomial.  A memo key carries its polynomial's {!Poly.hash}, so a
    miss hashes the polynomial once.  An entry keeps its decomposition's
    operator count ({!Polysynth_expr.Dag.tree_ops}), so a caller one level
    up prices a candidate built on it without walking it, and builds the
    decomposition itself only when a winner or a built candidate reads
    it: a miss first enters the direct form, priced from the terms
    ({!Polysynth_expr.Dag.poly_ops}) with no expression built, as both the
    entry that guards against cycles and the first candidate. *)

val make_session : Blocktab.t -> divisors:Poly.t list -> session
(** A divisor is named on first use: the first candidate that divides by
    it registers it in the table ({!Blocktab.divisor_var}), and the
    session keeps the name, so blocks are named in the order the
    decomposition first uses them. *)

val decompose : session -> Poly.t -> Expr.t
(** Best decomposition found; expands back to the input polynomial (with
    block variables replaced by their definitions).  Structural rewrites
    stop 4 recursion levels below the call.  Candidates are compared by
    operator count, the earliest winning a tie.  A division candidate
    [d * Q + R] is priced by {!division_price} from the memo entries of
    [R] and [Q] (decomposed in that order) and built only if it wins and
    is read; the content, perfect-power, common-coefficient and co-kernel
    candidates are built and their trees counted. *)

val division_price : Poly.t * int -> Poly.t * int -> int
(** [division_price (q, cq) (r, cr)] is the operator count
    ({!Polysynth_expr.Dag.tree_ops}) of the division candidate
    [Expr.add [Expr.mul [Expr.var dv; eq]; er]], where [eq] and [er] are
    the decompositions of a non-zero quotient [q] and of a remainder [r],
    [cq] and [cr] their counts and [dv] the divisor's block name:
    [cq + cr], plus a multiplication unless [q] is +-1 and an addition
    unless [r] is 0.  This is how {!decompose} prices a division candidate
    without building it, or the decompositions of [q] and [r]. *)
