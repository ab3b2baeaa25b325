(** Resource-constrained operation scheduling.

    After a decomposition is chosen, high-level synthesis maps its operator
    DAG onto a limited number of functional units over clock steps.  This
    module provides ASAP/ALAP analyses and a priority list scheduler
    (least-slack first), which exposes the area/latency trade-off of a
    decomposition: heavily shared building blocks serialize and need more
    steps on narrow resource budgets. *)

type resources = {
  multipliers : int;  (** general multipliers available per step *)
  adders : int;  (** adder/subtractor/constant-multiplier units per step *)
}

val unlimited : resources

type latency_model = {
  mult_cycles : int;  (** >= 1 *)
  add_cycles : int;  (** >= 1; used for adds, subs and constant mults *)
}

val default_latency : latency_model
(** Two-cycle multipliers, single-cycle adders. *)

type unit_class =
  | Free  (** inputs, constants, negations and shifts: wiring *)
  | Mult_unit  (** general multiplications *)
  | Add_unit  (** additions, subtractions and constant multiplications *)

val class_of : Netlist.op -> unit_class
(** The functional-unit class an operator runs on; {!Bind} and
    {!Fsmd} read the same classes. *)

val duration : latency_model -> Netlist.op -> int
(** Steps an operator occupies its unit: 0 for [Free] operators. *)

type schedule = {
  start_step : int array;  (** indexed by cell id; inputs/constants at 0 *)
  latency : int;  (** first step at which every output is available *)
  steps_used : int;
}

val asap : ?latency_model:latency_model -> Netlist.t -> int array
(** Earliest start step of every cell. *)

val critical_path_latency : ?latency_model:latency_model -> Netlist.t -> int
(** Latency with unlimited resources. *)

type no_progress = {
  step : int;  (** the step at which the scheduler gave up *)
  unscheduled : int list;  (** cell ids that never became ready *)
  message : string;  (** human-readable diagnosis *)
}
(** Diagnostic for a scheduling run that stopped making progress — only
    possible on a malformed netlist (cyclic or not topologically
    ordered); well-formed inputs always schedule. *)

val list_schedule :
  ?latency_model:latency_model ->
  resources ->
  Netlist.t ->
  (schedule, [ `No_progress of no_progress ]) result
(** Priority list scheduling; ties broken deterministically by cell id.
    @raise Invalid_argument when a resource class has fewer than one
    unit. *)

val list_schedule_exn :
  ?latency_model:latency_model -> resources -> Netlist.t -> schedule
(** {!list_schedule}, raising [Failure] with the diagnostic message on
    [`No_progress] — the historical behaviour, for callers that treat a
    stuck schedule as a fatal invariant violation. *)

val is_valid : ?latency_model:latency_model -> resources -> Netlist.t -> schedule -> bool
(** Checker used by the tests: dependences respected, per-step resource
    usage within bounds. *)
