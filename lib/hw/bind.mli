(** Resource binding: map a scheduled netlist onto concrete functional
    units and registers.

    After {!Schedule} assigns start steps, binding decides which physical
    multiplier/adder executes each operation (greedy reuse in step order)
    and allocates registers for values that must survive across steps
    (left-edge algorithm on lifetime intervals).  The report quantifies
    the resource side of a decomposition: fewer operations generally mean
    fewer units, but heavy sharing lengthens lifetimes and can cost
    registers and multiplexing. *)

type binding = {
  unit_of : (int * int) array;
      (** per cell id: (unit class, unit index); class 0 = free/wire,
          1 = multiplier, 2 = adder *)
  register_of : int array;
      (** per cell id: register index holding its result, or [-1] when
          the value never crosses a step boundary *)
  num_multipliers : int;
  num_adders : int;
  num_registers : int;
  mux_inputs : int;
      (** total distinct sources over all unit input ports: a proxy for
          steering-logic cost *)
}

val bind : Netlist.t -> Schedule.schedule -> binding
(** A value needs a register when it is read ({!Schedule.last_read})
    after the step at which it finishes.
    @raise Invalid_argument if the schedule does not belong to the
    netlist (array sizes differ). *)

val is_consistent : Netlist.t -> Schedule.schedule -> binding -> bool
(** Checker: no two operations of one class share a unit in overlapping
    steps, every unit value read after it finishes has a register, and no
    two values share a register when their lifetimes, closed intervals
    from finish step to last read, meet. *)
