(** Abstract domains over [Z_2^m] for the netlist dataflow framework.

    Every domain implements the same signature: [bottom], [top] and the
    order [leq], one transfer function per netlist operator and a few
    queries.  [Absint.Make] turns any such domain into a forward one-pass
    analysis over the {!Polysynth_hw.Netlist.t} DAG, which needs no join:
    each cell's fact is computed once from final fanin facts.

    Two domains ship, one per client: {!Int_interval} backs the width
    lint and {!Const} backs {!Simplify}.  Every rewrite [Simplify] makes
    is certified by {!Equiv} in the ring, so the pass needs only the
    facts it acts on: which cells are constants.

    Soundness contract: if a cell concretely evaluates (under
    {!Polysynth_hw.Netlist.eval}, i.e. clamped to [width] bits) to [v],
    then [contains ~width fact v] holds for the fact the analysis infers
    for that cell.  The exception is {!Int_interval}, which tracks the
    {e pre-wrap} integer value of each cell and is sound with respect to
    exact integer evaluation instead. *)

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

(** Constants mod [2^width]: bottom, one constant in [[0, 2^width)], or
    top.  Besides folding constant operands it knows that a product with
    a zero factor, a [Cmult] by a multiple of [2^width] and a [Shl] by at
    least [width] are zero. *)
module Const : DOMAIN

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
module Product = Const
