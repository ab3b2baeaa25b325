(** Additional DSP/embedded workloads beyond the paper's Table 14.3 suite,
    used by the ablation benches and the stress tests.

    All are integer polynomial systems with documented provenance:
    truncated series and least-squares fits are computed exactly and scaled
    to integers, like the Savitzky-Golay generator. *)

module Poly := Polysynth_poly.Poly

val fir_direct : taps:int -> Poly.t
(** A power-evaluation FIR model: [sum_k c_k x^k] with symmetric
    window-like integer coefficients — a univariate degree-[taps]
    polynomial, the classic Horner stress case.
    @raise Invalid_argument for [taps < 1]. *)

val chebyshev : degree:int -> Poly.t
(** The Chebyshev polynomial [T_degree(x)] (recurrence
    [T_n = 2x T_{n-1} - T_{n-2}]), used in function-approximation
    datapaths.  @raise Invalid_argument for negative degree. *)

val extended_suite : unit -> Benchmarks.t list
(** The extra systems packaged with benchmark metadata (FIR8, Cheb5,
    Lighting, Biquad).  Lighting is a graphics-style lighting evaluation:
    three output channels, each a degree-3 polynomial in (x, y, z)
    sharing the quadratic attenuation block ("multi-variate polynomial
    system from graphics applications").  Biquad is two cascaded
    biquad-section response polynomials in two variables with a shared
    resonator block. *)
