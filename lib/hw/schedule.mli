(** Resource-constrained operation scheduling.

    After a decomposition is chosen, high-level synthesis maps its operator
    DAG onto a limited number of functional units over clock steps.  This
    module provides a priority list scheduler (least slack first, the
    slack from ASAP/ALAP start times) under a fixed latency model
    (two-cycle multipliers, single-cycle adders), which exposes the
    area/latency trade-off of a decomposition: heavily shared building
    blocks serialize and need more steps on narrow resource budgets. *)

type resources = {
  multipliers : int;  (** general multipliers available per step *)
  adders : int;  (** adder/subtractor/constant-multiplier units per step *)
}

type unit_class =
  | Free  (** inputs, constants, negations and shifts: wiring *)
  | Mult_unit  (** general multiplications *)
  | Add_unit  (** additions, subtractions and constant multiplications *)

val class_of : Netlist.op -> unit_class
(** The functional-unit class an operator runs on; {!Bind} and
    {!Fsmd} read the same classes. *)

val duration : Netlist.op -> int
(** Steps an operator occupies its unit under the fixed latency model:
    2 for a multiplication, 1 for an [Add_unit] operator, 0 for [Free]
    operators. *)

type schedule = {
  start_step : int array;  (** indexed by cell id; inputs/constants at 0 *)
  latency : int;  (** first step at which every output is available *)
}

val critical_path_latency : Netlist.t -> int
(** Latency with unlimited resources. *)

val list_schedule : resources -> Netlist.t -> schedule
(** Priority list scheduling; ties broken deterministically by cell id.
    @raise Invalid_argument when a resource class has fewer than one
    unit, or when scheduling stops making progress, which only a cyclic
    netlist can cause ({!Netlist.of_dag}, {!Netlist.of_prog} and the
    passes that rewrite a netlist build acyclic ones). *)

val last_read : Netlist.t -> schedule -> int array
(** Per cell id, the last step at which its value is read: the latest
    start step of a [Mult_unit] or [Add_unit] consumer, where a read
    through a [Free] cell (a shift or a negation) counts at that cell's
    own last read, and [latency] for an output; [-1] for a value nothing
    reads.  {!Bind} sizes register lifetimes from it, for itself and for
    {!Fsmd}. *)

val is_valid : resources -> Netlist.t -> schedule -> bool
(** Checker used by the tests: dependences respected, per-step resource
    usage within bounds. *)
