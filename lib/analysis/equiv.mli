(** Equivalence certification: does a decomposition still compute its
    source system?

    Every certificate is one of three outcomes, all from one decision
    procedure: both sides are lowered to netlists and evaluated on a
    point set S that proves equality (the paper's Sec. 14.3 fixes a
    polynomial function by its falling-factorial coefficients, and the
    values on S fix those).  With [d_i] bounds on the degree of each side
    in variable [i] and [D] a bound on the total degree:
    - under a ring context of output width [m] and input widths [n_i],
      S = {k : k_i <= d_i, sum k_i <= D, k_i < 2^n_i, v2(prod k_i!) < m},
      and the values are compared modulo [2^m];
    - over [Z], S = {k : k_i <= d_i, sum k_i <= D}, and the values are
      compared modulo primes below [2^30] whose product passes twice a
      bound on the coefficients.

    [Verified] is a proof: the sides agree on all of S.  [Refuted] carries
    the first point of S, in lexicographic order over the sorted variables,
    at which they differ, with the exact values there.  There is no random
    pre-filter.  [Unknown] is returned only when the points of S times the
    moduli times the cells of both sides pass a fixed budget of cell
    evaluations, which bounds a certificate's time; its reason gives that
    count. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly
module Prog := Polysynth_expr.Prog
module Netlist := Polysynth_hw.Netlist
module Canonical := Polysynth_finite_ring.Canonical

type counterexample = {
  output : string;  (** the output on which the two sides disagree *)
  point : (string * Z.t) list;  (** input assignment (absent vars are 0) *)
  expected : Z.t;  (** the source system's value at the point *)
  got : Z.t option;  (** the program's value; [None] if the output is
                         missing entirely *)
}

type cert =
  | Verified
  | Refuted of counterexample
  | Unknown of string  (** reason the decision procedure was not run *)

val cert_label : cert -> string
(** ["verified"], ["refuted"] or ["unknown"]. *)

val cert_to_string : cert -> string

val cert_to_json : cert -> string
(** [{"status":"verified"}], or with ["counterexample"] / ["reason"]
    fields. *)

val certify : ?ctx:Canonical.ctx -> Poly.t list -> Prog.t -> cert
(** [certify ?ctx polys prog] checks that the output of [prog] that
    {!Prog.name_outputs} names for each polynomial of [polys] computes
    that polynomial — exactly over [Z] when [ctx] is absent, as
    bit-vector functions over the ring when present. *)

val certify_netlist : Poly.t list -> Netlist.t -> cert
(** [certify_netlist polys n] checks [n]'s cells, evaluated under the ring
    of [n]'s width: the [i]-th output of [n], whatever its name, must
    compute the [i]-th polynomial of [polys] as a bit-vector function. *)

val spot_check_netlist :
  ?seed:int -> Poly.t list -> Netlist.t -> (unit, counterexample) result
(** Bit-accurate sampling oracle for lowered hardware: evaluates the
    netlist on 5 input vectors of {!Netlist.draw_words} and compares
    every output with the source polynomial reduced modulo [2^width].  A
    sampler, not a decision procedure — [Ok ()] means no mismatch was
    found.  Outputs are paired with [polys] by name, through
    {!Prog.name_outputs}. *)
