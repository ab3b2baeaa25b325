(** The polynomial data structure of Fig. 14.1: for every polynomial of the
    system, a list of candidate representations produced by the different
    transformations, sharing one table of named building blocks.

    The canonical-form representations equal the original polynomial only
    as a bit-vector function over the given ring; every other
    representation expands back to the original polynomial over the
    integers. *)

module Poly := Polysynth_poly.Poly
module Expr := Polysynth_expr.Expr
module Canonical := Polysynth_finite_ring.Canonical

type rep = { label : string; expr : Expr.t }

type t = {
  table : Blocktab.t;
  polys : Poly.t array;
  reps : rep list array;  (** non-empty for each polynomial *)
}

val build :
  ?ctx:Canonical.ctx ->
  ?max_blocks:int ->
  Poly.t list ->
  t
(** Representation lists contain, where applicable and distinct, in this
    order: ["direct"], ["horner"], ["sqfree"] (square-free factored form),
    ["canonical"], ["canonical_split"] and ["coeff_fold"] (the three
    canonical forms, only when [ctx] is given), ["cce"] (common
    coefficient extraction), ["algdiv"] (the best algebraic-division
    decomposition) and ["ted"] (Taylor-expansion-diagram decomposition).
    The order is behaviour: when two builders produce equal expressions
    only the first is kept, and the combination search breaks score ties
    in favour of the earlier representation.

    The whole system shares one block table, one TED manager and one
    {!Algdiv} session, filled on the calling domain in a fixed order:
    polynomials in input order, and for each the builders from last to
    first (["ted"], ["algdiv"], ["cce"], ..., ["direct"]), so ["algdiv"]
    memoizes the polynomial at full depth before the builders that
    decompose its parts.  The result, block names included, is a function
    of [ctx], [max_blocks] and the list. *)

val num_combinations : t -> int
(** Product of the representation-list lengths (capped at [max_int]). *)
