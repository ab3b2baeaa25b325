(** Straight-line programs: a decomposition of a polynomial system.

    A program is a sequence of named building blocks (the [d_1 = x + y]
    definitions the paper's decompositions introduce) followed by one output
    expression per polynomial of the system.  Bindings may refer to earlier
    bindings by name. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

type t = {
  bindings : (string * Expr.t) list;  (** in dependency order *)
  outputs : (string * Expr.t) list;
}

val of_exprs : Expr.t list -> t
(** No bindings; outputs named [P1, P2, ...]. *)

val to_polys : t -> (string * Poly.t) list
(** Expand each output to its flat polynomial: the correctness contract is
    that a decomposition of a system expands back to the original system. *)

val eval : t -> (string -> Z.t) -> (string * Z.t) list

val to_dag : t -> Dag.t * (string * Dag.id) list
(** Lower to a shared DAG (bindings are built once and shared); returns the
    root of each output. *)

val counts : t -> Dag.counts
(** Post-CSE operator counts of the whole program. *)

val tree_counts : t -> Dag.counts
(** Naive counts with bindings inlined and no sharing: what a direct
    implementation of each output would cost. *)

val pp : Format.formatter -> t -> unit
