(** The CCE + common-cube-extraction stage of Algorithm 7 applied to the
    whole system.

    Each polynomial is first decomposed by common coefficient extraction
    ([P = sum g_i * b_i + r]); the resulting quotient blocks and residuals
    — now free of extractable coefficients — are run through variable-only
    kernel/cube extraction together, so that blocks shared {e across}
    polynomials are found (identical CCE blocks from different polynomials
    collapse in the shared DAG).  This is the whole-system counterpart of
    the per-polynomial representations in {!Represent}; the engine's
    Proposed flow keeps whichever scores better. *)

module Poly := Polysynth_poly.Poly
module Prog := Polysynth_expr.Prog

val decompose_cce_first : Poly.t list -> Prog.t
(** CCE on every polynomial, then variable-only extraction over all the
    pieces.  Outputs are named [P1, P2, ...] in input order; the program
    expands back to the input system exactly. *)

val decompose_cubes_first : Poly.t list -> Prog.t
(** Variable-only extraction over the original system, then CCE inside
    every extracted body.  Same naming and exactness contract. *)

val refine_literal_extraction :
  ?strategy:Polysynth_cse.Extract.strategy -> Poly.t list -> Prog.t
(** The baseline's literal-mode kernel/co-kernel extraction (greedy by
    default; [Kcm_rectangles] for the exact prime-rectangle formulation),
    refined algebraically inside every extracted body.  Same naming and
    exactness contract. *)

val variants : (string * (Poly.t list -> Prog.t)) list
(** All integrated orderings, labelled, in the order the engine builds and
    ranks them. *)
