(** Equivalence certification: does a decomposition still compute its
    source system?

    Every certificate is one of three outcomes.  [Verified] is a {e proof}:
    exact polynomial identity over [Z], or — under a ring context —
    equality of canonical falling-factorial forms over [Z_2^m], which is a
    decision procedure for bit-vector function equality (Sec. 14.3 of the
    paper).  [Refuted] always carries a concrete counterexample input on
    which the decomposition and the source system disagree; under a ring
    context the witness is {e constructed} from the canonical form of the
    difference (the minimal-total-degree falling term [c.Y_k] of a nonzero
    canonical form cannot vanish at the point [x_i = k_i]), so refutation
    never depends on sampling luck.  [Unknown] is returned only when the
    symbolic expansion of the program would exceed the size budget; the
    random pre-filter has still passed in that case.

    A fast random-evaluation pre-filter runs before the symbolic decision:
    faulty decompositions are usually refuted in microseconds without
    expanding anything. *)

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

val expansion_estimate : Prog.t -> int
(** Saturating estimate of the term count of the program's outputs after
    inlining every binding (sharing-aware, never expands anything).  This
    is the quantity {!certify} compares against [size_budget]; clients
    like {!Simplify} use it to predict whether certification will return
    [Unknown] before paying for a candidate rewrite. *)

val certify :
  ?ctx:Canonical.ctx ->
  ?samples:int ->
  ?size_budget:int ->
  Poly.t list ->
  Prog.t ->
  cert
(** [certify ?ctx polys prog] checks that output [P{i+1}] of [prog]
    computes [List.nth polys i] — exactly over [Z] when [ctx] is absent,
    as bit-vector functions over the ring when present.  [samples]
    (default 8) sets the random pre-filter effort; [size_budget]
    (default 100_000 nodes, estimated before inlining) bounds the symbolic
    expansion, beyond which [Unknown] is returned. *)

val spot_check_netlist :
  ?seed:int ->
  ?samples:int ->
  Poly.t list ->
  Netlist.t ->
  (unit, counterexample) result
(** Bit-accurate sampling oracle for lowered hardware: evaluates the
    netlist on random input vectors and compares every output with the
    source polynomial reduced modulo [2^width].  A sampler, not a decision
    procedure — [Ok ()] means no mismatch was found.  Output [P{i+1}] is
    compared with [List.nth polys i]. *)
