(** The per-cell facts of a netlist, each one
    {!Polysynth_hw.Netlist.interpret} of a transfer function of
    {!Domains}. *)

module Netlist := Polysynth_hw.Netlist

val intervals : Netlist.t -> Domains.Int_interval.t array
(** Each cell's pre-wrap interval, indexed by cell id: what the width
    lint ({!Widths}) reads. *)

val constants : Netlist.t -> Domains.Const.t array
(** The cells known to be constants mod [2^width], indexed by cell id:
    what {!Simplify} acts on. *)

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
val analyze_product : Netlist.t -> Domains.Const.t array

val to_strings : Netlist.t -> string list
(** One printable line per cell, the CLI's [--analyze]: id, operator, the
    pre-wrap interval the width lint reads and the constant {!Simplify}
    reads ([top] when the cell is not a known constant). *)
