(** Kernel/co-kernel extraction for polynomials (Section 14.2.1, after
    Hosangadi et al.).

    For a polynomial [P] and a cube [c], the quotient [P/c] (keeping only
    the terms divisible by [c]) is a {e kernel} when it is cube-free and has
    at least two terms; [c] is the corresponding {e co-kernel}.  Kernels are
    the candidate multi-term factors that factoring and CSE work with.

    [kernels] is memoized in a bounded, domain-safe table
    ({!Polysynth_zint.Memo}) keyed by the polynomial: the extraction loop
    re-kernels its (mostly unchanged) work items every round, so results
    are served from cache across rounds.  Kernelling is a pure function,
    so the memo is always on; no setting bypasses it.  The hit/miss
    counters surface in the engine trace, and
    [Polysynth_core.Engine.clear_cache] drops the table along with the
    representation store. *)

module Poly := Polysynth_poly.Poly
module Monomial := Polysynth_poly.Monomial

val clear_cache : unit -> unit
(** Drop the kernelling memo table and reset its counters. *)

val cache_stats : unit -> int * int
(** Cumulative (hits, misses) of the kernelling memo table. *)

val largest_cube : Poly.t -> Monomial.t
(** The biggest cube (product of variables) dividing every term;
    [Monomial.one] for the zero polynomial. *)

val is_cube_free : Poly.t -> bool

val cube_free_part : Poly.t -> Poly.t
(** [p = monomial(largest_cube p) * cube_free_part p]. *)

val divide_cube : Poly.t -> Monomial.t -> Poly.t
(** [divide_cube p c]: drop the terms not divisible by [c] and divide the
    rest — the quotient used to form kernels. *)

val kernels : Poly.t -> (Monomial.t * Poly.t) list
(** All (co-kernel, kernel) pairs of the polynomial, including the trivial
    pair [(largest_cube p, cube_free_part p)] when the cube-free part has at
    least two terms.  Pairs are distinct and deterministically ordered. *)
