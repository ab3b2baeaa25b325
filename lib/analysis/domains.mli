(** Abstract domains over [Z_2^m] for the netlist dataflow framework.

    Every domain implements the same signature: [bottom], [top] and the
    order [leq], one transfer function per netlist operator and a few
    queries.  [Absint.Make] turns any such domain into a forward one-pass
    analysis over the {!Polysynth_hw.Netlist.t} DAG, which needs no join:
    each cell's fact is computed once from final fanin facts.

    Soundness contract: if a cell concretely evaluates (under
    {!Polysynth_hw.Netlist.eval}, i.e. clamped to [width] bits) to [v],
    then [contains ~width fact v] holds for the fact the analysis infers
    for that cell.  The exception is {!Int_interval}, which tracks the
    {e pre-wrap} integer value of each cell and is sound with respect to
    exact integer evaluation instead; it backs the width lint. *)

module Z = Polysynth_zint.Zint

module type DOMAIN = sig
  type t

  val bottom : t
  val is_bottom : t -> bool
  val top : width:int -> t
  val leq : t -> t -> bool

  (** transfer functions, one per netlist operator *)

  val const : width:int -> Z.t -> t
  val input : width:int -> string -> t
  val neg : width:int -> t -> t
  val add : width:int -> t -> t -> t
  val sub : width:int -> t -> t -> t
  val mul : width:int -> t -> t -> t
  val cmul : width:int -> Z.t -> t -> t
  val shl : width:int -> int -> t -> t

  (** queries *)

  val as_const : width:int -> t -> Z.t option
  val contains : width:int -> t -> Z.t -> bool
  val to_string : t -> string
end

(** [clamp ~width v] is [v] reduced into [[0, 2^width)]. *)
val clamp : width:int -> Z.t -> Z.t

(** [is_pow2 c] is [Some k] iff [c = 2^k] with [c > 0]. *)
val is_pow2 : Z.t -> int option

(** Exact integer intervals, ignoring datapath wrap-around — the domain
    behind {!Widths}.  Sound w.r.t. exact integer evaluation of the DAG,
    not w.r.t. [Netlist.eval]'s clamped semantics. *)
module Int_interval : sig
  include DOMAIN

  (** [range t] is the (pre-wrap) interval, [None] on bottom. *)
  val range : t -> (Z.t * Z.t) option
end

(** Wrap-aware intervals: [lo, hi] with [0 <= lo <= hi < 2^width].  Each
    transfer is {!Int_interval}'s, wrapped into the ring: a result
    spanning the full ring or straddling the wrap point widens to top. *)
module Interval : DOMAIN

(** Per-bit three-valued facts (0 / 1 / unknown).  Bit 0 subsumes the
    parity domain. *)
module Known_bits : DOMAIN

(** [value = r (mod 2^k)]: tracks the low [k] bits exactly.  [k = 0] is
    top; [k = width] pins the cell to a constant. *)
module Congruence : DOMAIN

(** Reduced product of {!Interval}, {!Known_bits} and {!Congruence}:
    after every transfer, constants discovered by one factor are pushed
    into the others, congruence low bits flow into known bits and the
    known trailing-bit run flows back into the congruence.  Reduction
    only tightens, so each component is at or below what the standalone
    factor would compute. *)
module Product : sig
  include DOMAIN

  val interval : t -> Interval.t
  val known_bits : t -> Known_bits.t
  val congruence : t -> Congruence.t
end
