(** Generic forward abstract interpretation over the netlist DAG.

    [Make] lifts any {!Domains.DOMAIN} into a forward analysis: one pass
    over the topologically ordered [cells], each cell's fact the transfer
    of its fanins' facts.  A cell whose fanin is not an earlier cell stays
    at bottom. *)

module Netlist := Polysynth_hw.Netlist

module Make (D : Domains.DOMAIN) : sig
  type fact = D.t

  val analyze : Netlist.t -> D.t array
  (** Per-cell facts, indexed by cell id; input cells get [D.input]. *)

  val to_strings : Netlist.t -> D.t array -> string list
  (** One printable line per cell: id, operator, fact. *)
end

module Product_analysis : sig
  type fact = Domains.Product.t

  val analyze : Netlist.t -> Domains.Product.t array

  val to_strings : Netlist.t -> Domains.Product.t array -> string list
end

val analyze_product : Netlist.t -> Domains.Product.t array
(** [Product_analysis.analyze]: the reduced product of wrap-aware
    intervals, known bits and congruences — what {!Simplify} and the CLI
    [--analyze] flag consume. *)
