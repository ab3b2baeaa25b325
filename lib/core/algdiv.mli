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
    operator count ({!Polysynth_expr.Dag.tree_ops}) and whether it is
    scaled (under any negation, a product with a constant factor), so a
    caller one level up prices a candidate built on it without walking
    it, and builds the decomposition itself only when a winner reads it:
    a miss first enters the direct form, priced from the terms
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
    operator count, the earliest winning a tie.  Every candidate but the
    rare perfect power is priced from the memo entries of its parts
    (decomposed in a fixed order: [R] before [Q], the residual before the
    groups, [rest] before the kernel) and built only if it wins and is
    read. *)

val division_price : Poly.t * int -> Poly.t * int -> int
(** [division_price (q, cq) (r, cr)] is the operator count
    ({!Polysynth_expr.Dag.tree_ops}) of [Expr.add [Expr.mul [Expr.var dv;
    eq]; er]], where [eq] and [er] decompose a non-zero quotient [q] and a
    remainder [r], with counts [cq] and [cr]: [cq + cr], plus a
    multiplication unless [q] is +-1 and an addition unless [r] is 0. *)

val content_price : int * bool -> int * bool
val cce_price : (int * bool) list -> Poly.t * int -> int * bool

val cokernel_price :
  Polysynth_poly.Monomial.t -> int * bool -> Poly.t * int -> int * bool
(** From the [(count, scaled)] of non-constant parts [e] and [ebs] and the
    count of [er], which decomposes [r]: the count and scaledness of the
    content candidate [Expr.mul [Expr.const c; e]] ([|c| > 1]), the
    common-coefficient candidate [Expr.add (List.map (fun eb -> Expr.mul
    [Expr.const g; eb]) ebs @ [er])] ([g > 1]) and the co-kernel candidate
    [Expr.add [Expr.mul [Expr.of_poly (Poly.monomial ck); e]; er]]. *)
