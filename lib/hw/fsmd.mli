(** FSM-with-datapath construction: the sequential implementation of a
    bound netlist.

    Where {!Verilog} emits the fully parallel (combinational) datapath,
    this module time-multiplexes the operations of a {!Bind.binding}
    onto its functional units and registers: every unit result is written
    into its register at the end of its launch state, operands are
    steered from registers/inputs/constants through the free cells
    (shifts, negations), and a state counter sequences the steps.  It
    keeps no structure of its own: the cells, steps, units and registers
    are read straight from the binding, so its counts are the binding's.
    Callers bind once ({!Bind.bind}) and hand that one binding to every
    function here and to any checker of it.

    The module carries its own cycle-accurate interpreter
    ({!simulate}), so the construction is checked against the
    combinational reference ({!Netlist.eval}) in the test suite, and a
    sequential Verilog-2001 emitter. *)

module Z := Polysynth_zint.Zint

val states : Bind.binding -> Netlist.cell list array
(** Per state (at least one, and one per step of the schedule's latency),
    the multiplier and adder cells launched in it, ordered by
    destination register. *)

val simulate : Bind.binding -> (string -> Z.t) -> (string * Z.t) list
(** Cycle-accurate execution; agrees with {!Netlist.eval} of the bound
    netlist. *)

val to_verilog : ?module_name:string -> Bind.binding -> string
(** Sequential Verilog: [clk]/[rst] inputs, the netlist's
    {!Netlist.inputs} as data ports, a state counter, one always block;
    [done_o] rises when the outputs are valid.  These names, the state
    counter's and the register file's gain underscores
    ({!Netlist.fresh_prefix}) when a port starts with them. *)
