(** Graphviz DOT export of a netlist, for visual inspection of the sharing
    a decomposition achieves. *)

val of_netlist : Netlist.t -> string
(** A graph named [polysynth]: one node per cell (operators as shapes,
    inputs/constants as plain nodes), one edge per fanin connection,
    output cells labelled with their output names. *)
