(** Self-checking Verilog testbench generation.

    Pairs with {!Verilog.emit}: the testbench instantiates the generated
    module, drives it with a deterministic stream of random vectors, and
    compares every output against the expected value computed by the
    bit-accurate reference simulator ({!Netlist.eval}).  The generated
    file is self-contained Verilog-2001 and prints PASS/FAIL. *)

val emit : ?module_name:string -> ?vectors:int -> Netlist.t -> string
(** [module_name] must match the one given to {!Verilog.emit} (default
    "polysynth"); [vectors] (default 16) test vectors are drawn from a
    generator seeded with 1. *)
