(** Taylor Expansion Diagrams (Ciesielski, Kalla & Askar) — the canonical
    word-level DAG representation the paper's related work uses for
    data-flow transformations.

    A TED decomposes a polynomial with respect to a fixed variable order:
    [f = f|_(v=0) + v * (df/dv)-style linear cofactor], recursively.  With
    hash-consing, two polynomials have the same node exactly when they are
    equal, so the structure is canonical for the given order; shared
    sub-functions across a polynomial system appear as shared nodes, and
    reading the diagram back as an expression yields a Horner-style
    decomposition whose sharing mirrors the diagram ("decomposition cuts",
    as in Gomez-Prado et al.).

    All nodes live in a manager; node ids are only meaningful within it. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly
module Expr := Polysynth_expr.Expr

type manager
type t = private int  (** node id, hash-consed within a manager *)

val create : ?order:string list -> unit -> manager
(** [order] fixes the decomposition variable order; variables not listed
    are appended in lexicographic order as they appear. *)

val leaf : manager -> Z.t -> t

val of_poly : manager -> Poly.t -> t
val to_poly : manager -> t -> Poly.t

val equal : t -> t -> bool
(** Physical id equality; by canonicity this decides polynomial
    equality within one manager. *)

val num_nodes : manager -> int
(** Total nodes allocated in the manager (a measure of sharing). *)

val decompose : manager -> t -> Expr.t
(** Read the diagram back as a Horner-style expression
    ([const + v * linear] at every node); shared nodes produce identical
    sub-expressions, which downstream CSE merges. *)
