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
    of each body.  The ranking scan that shortlists a candidate also
    records the items that hold it: for a block, the items with a kernel
    holding it (up to sign when [signs] is on), for a cube, the items
    with a term it divides.  A trial rewrites only those items and returns
    every other item as it is, which is what the rewrite would return:
    both read the same memoized kernels.  Each round counts every body
    once; a trial reuses that count for every body it leaves unchanged and
    counts only the bodies it rewrites and its new block.  The count is a
    pure function of the body, so it is also memoized, in a domain-local
    table that {!clear_cost_memo} empties; no setting bypasses it. *)

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

val clear_cost_memo : unit -> unit
(** Invalidate the domain-local flat-cost memo in every domain (the
    tables self-reset via a global epoch on their next access) and zero
    the counters.  Part of the engine-owned cache set emptied by
    [Engine.clear_cache]. *)

val cost_memo_stats : unit -> int * int
(** Cumulative [(hits, misses)] of the flat-cost memo across all domains
    since start or {!clear_cost_memo}. *)
