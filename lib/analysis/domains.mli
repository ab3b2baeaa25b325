(** The two per-cell facts of the netlist analysis, each a transfer
    function that {!Absint} runs through {!Polysynth_hw.Netlist.interpret}.

    [transfer ~width op arg] is the fact of a cell [op] whose [k]-th
    operand has fact [arg k].  The netlist's [cells] array is
    topologically ordered, so every operand fact is final when its user
    is reached: one pass, no join.

    {!Int_interval} backs the width lint and {!Const} backs {!Simplify}.
    Every rewrite [Simplify] makes is certified by {!Equiv} in the ring,
    so the pass needs only the facts it acts on: which cells are
    constants.

    Soundness: if a cell evaluates under {!Polysynth_hw.Netlist.values}
    (wrapped to [width] bits) to [v], its {!Const} fact is top or the
    constant [v].  Its {!Int_interval} fact holds the cell's value before
    wrap-around, the value under exact integer evaluation. *)

module Z := Polysynth_zint.Zint
module Netlist := Polysynth_hw.Netlist

(** Exact integer intervals [(lo, hi)], ignoring datapath wrap-around:
    inputs range over [[0, 2^width - 1]]. *)
module Int_interval : sig
  type t = Z.t * Z.t

  val transfer : width:int -> Netlist.op -> (int -> t) -> t
end

(** Constants mod [2^width]: one constant in [[0, 2^width)], or top.
    Besides folding constant operands it knows that a product with a zero
    factor, a [Cmult] by a multiple of [2^width] and a [Shl] by at least
    [width] are zero. *)
module Const : sig
  type t

  val transfer : width:int -> Netlist.op -> (int -> t) -> t

  val as_const : t -> Z.t option
  (** The constant, [None] on top. *)

  val to_string : t -> string

  val top : width:int -> t
  (** The fact of a cell whose value is not known. *)

  (* perfbench's replay is the only user of [leq]; the benchmark change
     that updates the replay (ROADMAP items 1 and 2) deletes it *)
  val leq : t -> t -> bool
end

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
module Product = Const
