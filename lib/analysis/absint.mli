(** Generic forward abstract interpretation over the netlist DAG.

    [Make] lifts any {!Domains.DOMAIN} into a worklist fixpoint analysis.
    Cells start at bottom and are seeded in topological order, so on a
    well-formed netlist the fixpoint is reached in one sweep; users of a
    cell are re-queued whenever its fact grows.  Termination follows from
    the finite height of every domain over a fixed width: facts only move
    up the lattice, so each cell changes finitely often and the worklist
    drains. *)

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
