(** Hash-consed binary operator DAGs: the common-sub-expression engine.

    An expression (or a whole system of them) is lowered to binary
    add/sub/mul nodes; hash-consing merges structurally identical
    computations, so the number of live nodes *is* the post-CSE operator
    count.  N-ary sums and products are binarized over their canonically
    sorted operand lists and powers are lowered to multiplication chains, so
    equal sub-computations (including shared power prefixes like [y^2]
    inside [y^3]) land on the same node.

    Operator counting follows the paper's convention: every multiplication
    — including multiplication by a non-trivial constant — is a MULT;
    every binary addition or subtraction is an ADD; negation is free. *)

module Z := Polysynth_zint.Zint

type t
type id = private int

type node =
  | Nconst of Z.t  (** non-negative *)
  | Nvar of string
  | Nneg of id
  | Nadd of id * id
  | Nsub of id * id
  | Nmul of id * id

val create : unit -> t

val add_expr : ?env:(string -> id option) -> t -> Expr.t -> id
(** Lower an expression into the DAG.  [env] resolves variable names that
    stand for previously-built blocks (named building blocks share their
    nodes through it). *)

val node : t -> id -> node
(** @raise Invalid_argument on an out-of-range id. *)

val num_nodes : t -> int

val live : t -> roots:id list -> id list
(** Ids reachable from the roots, in increasing (topological) order. *)

type counts = {
  mults : int;  (** all multiplications *)
  const_mults : int;  (** of which one operand is a constant *)
  adds : int;  (** additions plus subtractions *)
}

val counts : t -> roots:id list -> counts
val zero_counts : counts
val total_ops : counts -> int

val tree_counts : Expr.t -> counts
(** Operator count of one expression *as a tree* (no sharing at all): the
    cost of a naive direct implementation. *)

val tree_ops : Expr.t -> int
(** [total_ops (tree_counts e)], counted without allocating per node: the
    price every decomposition builder compares its candidates by. *)

val poly_ops : Polysynth_poly.Poly.t -> int
(** [tree_ops (Expr.of_poly p)], counted from the terms with no tree
    built: the flat operator count the extraction loop scores bodies by. *)

val eval : t -> (string -> Z.t) -> id -> Z.t
