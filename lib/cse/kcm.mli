(** The kernel-cube matrix (KCM) formulation of multi-polynomial CSE from
    Hosangadi et al.

    Rows are kernel instances (a polynomial together with one of its
    co-kernels), columns are the distinct signed cubes appearing in any
    kernel; entry (r, c) is set when cube c occurs in kernel r.  A
    {e rectangle} — a set of rows sharing a set of columns — identifies a
    multi-term sub-expression (the column cubes) occurring once per row;
    extracting a {e prime} rectangle (one that cannot be enlarged) with a
    good value function is the exact counterpart of the greedy
    intersection heuristic in {!Extract}.

    Each row keeps its columns as a bitset of machine words
    ([Sys.int_size] columns a word), so the closure intersects two rows
    and tests one for containing another word by word, and a pair of rows
    sharing fewer than two columns is skipped without building their
    intersection. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly
module Monomial := Polysynth_poly.Monomial

type t

type rectangle = {
  rows : int list;  (** kernel-instance indices *)
  body : Poly.t;  (** the shared sub-expression (>= 2 terms) *)
  value : int;  (** estimated operation saving *)
}

val build : Poly.t list -> t

val prime_rectangles : t -> rectangle list
(** Prime rectangles with at least two rows and two columns, best value
    first, at most 64 of them.  Seeds are the single-row column sets and
    all pairwise row intersections, closed under the (rows of all columns
    / columns of all rows) Galois connection, so every reported rectangle
    is prime. *)

val candidates : Poly.t list -> Poly.t list
(** The rectangle bodies, best first — drop-in candidate blocks for the
    extraction loop. *)
