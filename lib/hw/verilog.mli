(** Structural Verilog emission for a synthesized decomposition.

    Mirrors the paper's hand-off of each decomposition to a logic-synthesis
    tool: the generated module computes every output of the polynomial
    system with wrap-around [width]-bit arithmetic, one wire per operator
    cell.  The module is self-contained synthesizable Verilog-2001. *)

val emit : ?module_name:string -> Netlist.t -> string
