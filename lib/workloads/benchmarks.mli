(** The benchmark suite of Table 14.3.

    The paper's sources (Savitzky-Golay filter tables, a quadratic filter
    from Mathews-Sicuranza, a MiBench automotive kernel, and the
    multivariate cosine wavelet of Hosangadi et al.) give only summary
    characteristics: number of bit-vector variables, polynomial order,
    output width and number of polynomials.  The SG systems are generated
    by an exact least-squares fit (see {!Savitzky_golay}); the remaining
    three are synthetic systems with exactly the published characteristics
    and the structural redundancy (symmetric quadratic kernels, truncated
    trigonometric series) that the respective application domains
    exhibit — the property the optimizations exploit. *)

module Poly := Polysynth_poly.Poly

type t = {
  name : string;  (** e.g. "SG 3x2" *)
  polys : Poly.t list;
  num_vars : int;
  degree : int;
  width : int;  (** output bit-vector size m *)
}

val all : unit -> t list
(** The eight systems of Table 14.3, in the paper's row order:
    SG 3x2, SG 4x2, SG 4x3, SG 5x2, SG 5x3, Quad, Mibench, MVCS. *)

val by_name : string -> t option
