(** Generic forward abstract interpretation over the netlist DAG.

    [Make] lifts any {!Domains.DOMAIN} into a forward analysis: one pass
    over the topologically ordered [cells], each cell's fact the transfer
    of its fanins' facts.  A cell whose fanin is not an earlier cell stays
    at bottom.  Two instances have clients: {!Domains.Int_interval}'s
    (the width lint, {!Widths}) and {!Domains.Const}'s ({!Simplify}). *)

module Netlist := Polysynth_hw.Netlist

module Make (D : Domains.DOMAIN) : sig
  val analyze : Netlist.t -> D.t array
  (** Per-cell facts, indexed by cell id; input cells get [D.input]. *)
end

val constants : Netlist.t -> Domains.Const.t array
(** [Make (Domains.Const)]'s facts: the cells known to be constants mod
    [2^width], what {!Simplify} acts on. *)

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
val analyze_product : Netlist.t -> Domains.Const.t array

val to_strings : Netlist.t -> string list
(** One printable line per cell, the CLI's [--analyze]: id, operator, the
    pre-wrap interval the width lint reads and the constant {!Simplify}
    reads ([top] when the cell is not a known constant). *)
