(** Factoring with common sub-expression extraction (the Hosangadi-style
    flow of reference [13], used both as the comparison baseline and as the
    common-cube-extraction stage of the proposed method).

    The driver keeps a worklist of polynomial bodies (the system outputs
    plus every building block created so far) and greedily applies the move
    with the best global operator saving until none helps:
    - extracting a kernel, a kernel intersection, or a common cube that
      occurs several times as a shared building block;
    - factoring a single polynomial through one of its kernels
      ([P = cokernel * kernel + rest]).

    In [Coeff_literals] mode numeric coefficients are treated as opaque
    literals, faithfully reproducing the limitation of [13] that Section
    14.2.1 discusses (no algebraic division, so [5x^2+10y^3+15pq] exposes no
    common coefficient).  [Vars_only] mode extracts cubes over variables
    only and is what the proposed flow uses after its own common-coefficient
    extraction.

    The greedy loop scores its trial rewrites by the flat operator count
    of each body ({!Polysynth_expr.Dag.poly_ops}, counted from the terms
    once per body, with no expression built).  Each round indexes its
    kernel instances (every item with each of its memoized kernels) by the
    monomials of the kernel's terms, in instance order.  A kernel holding
    a block has a term on the block's leading monomial, so the ranking
    scan of a block reads only the instances under that monomial; two
    kernels with two common terms share two monomials, so only the pairs
    the index shows sharing two are intersected for block candidates.

    The scan also records the items that hold the candidate (the
    {e holders}): for a block, the items with a kernel holding it (up to
    sign when [signs] is on), for a cube, the items with a term it
    divides.  Only a holder can change under the rewrite: every other
    item comes back as it is, since both read the same memoized kernels.
    A trial therefore rewrites the holders alone and is priced as the
    round's cost plus the new block plus each rewritten holder's change;
    it counts as rewriting something only when a holder's body changes.
    A holder is frozen (left as it is) when the candidate depends on it,
    which needs a dependency walk only when a variable of the candidate
    names an item.  The item list is rebuilt once a round, for the
    winner. *)

module Poly := Polysynth_poly.Poly
module Prog := Polysynth_expr.Prog

type mode =
  | Coeff_literals  (** coefficients are literals, as in [13] *)
  | Vars_only  (** cubes contain variables only *)

type strategy =
  | Greedy  (** kernel grouping + pairwise intersections (default) *)
  | Kcm_rectangles
      (** prime rectangles of the kernel-cube matrix ({!Kcm}) as the block
          candidates — the exact Hosangadi formulation *)

type result = {
  prog : Prog.t;
      (** the decomposition: block bindings plus one output per input
          polynomial (named [P1], [P2], ...) *)
  blocks : (string * Poly.t) list;
      (** the extracted building blocks as polynomials (block bodies may
          mention earlier blocks by name), in dependency order.  Blocks are
          named [cse_t1, cse_t2, ...], skipping any name that is a
          variable of the input system. *)
  output_bodies : (string * Poly.t) list;
      (** the rewritten flat polynomial of each output (block names appear
          as variables), in input order *)
}

val run :
  ?mode:mode ->
  ?strategy:strategy ->
  ?signs:bool ->
  Poly.t list ->
  result
(** [mode] defaults to [Coeff_literals]; [signs] (default true) also
    matches sub-expressions up to negation ([P = S + A] together with
    [P' = S - A]), an enhancement beyond [13] that the baseline disables.
    At most 100 greedy extractions are made. *)

(* perfbench's replay is the only caller of this no-op; the benchmark
   change that updates the replay (ROADMAP item 1) deletes it *)
val clear_cost_memo : unit -> unit
