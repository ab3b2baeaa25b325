(** FSM-with-datapath construction: the sequential implementation of a
    scheduled, bound netlist.

    Where {!Verilog} emits the fully parallel (combinational) datapath,
    this module time-multiplexes the operations of a {!Schedule} onto the
    functional units and registers of its {!Bind.bind}: every unit result
    is written into its register at the end of its launch state,
    operands are steered from registers/inputs/constants through the
    free cells (shifts, negations), and a state counter sequences the
    steps.  The module allocates nothing itself, so its unit and register
    counts are the binding's.

    The module carries its own cycle-accurate interpreter
    ({!simulate}), so the construction is checked against the
    combinational reference ({!Netlist.eval}) in the test suite, and a
    sequential Verilog-2001 emitter. *)

module Z := Polysynth_zint.Zint

type source =
  | From_register of int
  | From_input of string
  | From_constant of Z.t
  | Shifted of int * source
  | Negated of source

type micro_op = {
  step : int;  (** state in which the operation starts *)
  op : Netlist.op;  (** Mult2 / Add2 / Sub2 / Cmult only *)
  unit_class : Schedule.unit_class;  (** [Mult_unit] or [Add_unit] *)
  unit_index : int;
  sources : source list;
  dest_register : int;  (** written at the end of state [step] *)
}

type t = {
  micro_ops : micro_op list;  (** sorted by step *)
  num_states : int;
  num_registers : int;
  output_sources : (string * source) list;
  width : int;
}

val build : Schedule.resources -> Netlist.t -> t
(** Schedules ({!Schedule.list_schedule_exn}) and binds ({!Bind.bind})
    internally, then constructs the FSMD. *)

val simulate : t -> (string -> Z.t) -> (string * Z.t) list
(** Cycle-accurate execution; agrees with {!Netlist.eval} of the netlist
    the FSMD was built from. *)

val to_verilog : ?module_name:string -> t -> string
(** Sequential Verilog: [clk]/[rst] inputs, a state counter, one always
    block; [done_o] rises when the outputs are valid. *)
