(** Resource binding: schedule a netlist on a resource budget and map it
    onto concrete functional units and registers.

    {!bind} first assigns start steps ({!Schedule.list_schedule}), then
    decides which physical multiplier/adder executes each operation and
    which register holds each result.  One left-edge allocator does
    both: a unit is busy over the closed interval from its launch step to
    the step before it finishes, and a multiplier or adder result holds
    its register from the state after its launch (the write lands at the
    end of the launch state) to its last read ({!Schedule.last_read}),
    and at least for that one state.  The binding carries its budget,
    netlist and schedule, so it is all {!Fsmd} needs to run and emit the
    sequential datapath and all a checker needs to re-check it: callers
    bind once and pass the binding on.  The report quantifies the
    resource side of a decomposition: fewer operations generally mean
    fewer units, but heavy sharing lengthens lifetimes and can cost
    registers and multiplexing. *)

type binding = {
  resources : Schedule.resources;  (** the budget it was scheduled on *)
  netlist : Netlist.t;  (** the netlist that was bound *)
  schedule : Schedule.schedule;  (** its schedule on [resources] *)
  unit_of : (Schedule.unit_class * int) array;
      (** per cell id: its unit class and the index of the unit of that
          class running it; [(Free, 0)] for wiring *)
  register_of : int array;
      (** per cell id: register index holding its result; [-1] for
          [Free] cells, which hold none *)
  num_multipliers : int;
  num_adders : int;
  num_registers : int;
  mux_inputs : int;
      (** total distinct sources over all unit input ports: a proxy for
          steering-logic cost *)
}

val bind : Schedule.resources -> Netlist.t -> binding
(** [bind resources n] schedules [n] on [resources] and binds the result.
    @raise Invalid_argument as {!Schedule.list_schedule} does. *)

val is_consistent : binding -> bool
(** Checker: no two operations share a unit in overlapping steps, every
    multiplier or adder result has a register, and no two results share
    a register when their lifetimes, the closed intervals
    [[launch + 1, max (last read, launch + 1)]], meet. *)
