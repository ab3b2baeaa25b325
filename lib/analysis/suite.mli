(** The analysis suite: one entry point checking the artifacts of one
    decomposition — its program, the netlist it lowers to, the outcome
    of the simplify pass on that netlist and the binding of the netlist
    it hands on — in order.  The suite builds none of them: the caller
    hands over the ones it costed and emitted.

    Pass ordering is load-bearing.  Well-formedness runs first and gates
    everything else: width propagation, the redundancy lint, the
    scheduler/binder cross-check and the simplify findings all assume a
    single-assignment, acyclic program, so a structurally broken input
    yields only the well-formedness findings rather than garbage
    downstream results.

    The suite does not certify the program against its source system:
    the engine certifies every report it returns.  The scheduler/binder
    cross-check re-checks the given binding's schedule against its own
    budget with {!Polysynth_hw.Schedule.is_valid} and the binding with
    {!Polysynth_hw.Bind.is_consistent}. *)

module Prog := Polysynth_expr.Prog
module Netlist := Polysynth_hw.Netlist
module Canonical := Polysynth_finite_ring.Canonical
module Bind := Polysynth_hw.Bind

type report = {
  wellformed : Diag.t list;
  widths : Diag.t list;
  redundancy : Diag.t list;
  binding : Diag.t list;
      (** [bind.*] findings; always [Error] severity — a violation here
          is a scheduler/binder bug, not a property of the input *)
  simplify : Diag.t list;  (** [simplify.*] findings *)
}

val analyze :
  ?ctx:Canonical.ctx ->
  Prog.t ->
  Netlist.t ->
  Simplify.outcome ->
  Bind.binding ->
  report
(** [analyze ?ctx prog netlist simplified binding] checks [prog], the
    [netlist] it lowers to, the [simplified] outcome of {!Simplify.run}
    on that netlist and [binding], the {!Bind.bind} of the netlist the
    caller emits (after simplification and constant-multiplier
    lowering, when it runs them).  A ring context selects the [Ring]
    width mode. *)

val diags : report -> Diag.t list
(** All findings of all passes, sorted by severity. *)

val exit_code : report -> int
(** The lint part of the CLI/CI contract: [4] when the scheduler/binder
    cross-check failed (an internal invariant violation), [3] when any
    other finding has [Error] severity, [0] otherwise.  The CLI exits [2]
    before either when a certificate is not [Verified]. *)

val to_json : report -> string
