(** The analysis suite: one entry point running every pass in order.

    Pass ordering is load-bearing.  Well-formedness runs first and gates
    everything else: width propagation, the redundancy lint, the
    scheduler/binder cross-check and the simplify pass all assume a
    single-assignment, acyclic program, so a structurally broken input
    yields only the well-formedness findings rather than garbage
    downstream results.

    Every pass runs on every call.  The suite does not certify the program
    against its source system: the engine certifies every report it
    returns.  The scheduler/binder cross-check schedules and binds on a
    one-multiplier, one-adder budget and re-checks both results with
    {!Polysynth_hw.Schedule.is_valid} and {!Polysynth_hw.Bind.is_consistent}.
    The simplify pass uses 8 random samples as its pre-filter. *)

module Poly := Polysynth_poly.Poly
module Prog := Polysynth_expr.Prog
module Canonical := Polysynth_finite_ring.Canonical

type config = {
  ctx : Canonical.ctx option;  (** ring context; selects [Ring] width mode *)
  width : int;  (** datapath width the program is lowered at *)
  system : Poly.t list option;
      (** source system the simplify pass certifies its rewrites against;
          [None] lets it recover one from the netlist *)
}

val default : width:int -> config
(** No ring context, no source system. *)

type report = {
  wellformed : Diag.t list;
  widths : Diag.t list;
  redundancy : Diag.t list;
  binding : Diag.t list;
      (** [bind.*] findings; always [Error] severity — a violation here
          is a scheduler/binder bug, not a property of the input *)
  simplify : Diag.t list;  (** [simplify.*] findings *)
}

val analyze : config -> Prog.t -> report

val diags : report -> Diag.t list
(** All findings of all passes, sorted by severity. *)

val exit_code : report -> int
(** The lint part of the CLI/CI contract: [4] when the scheduler/binder
    cross-check failed (an internal invariant violation), [3] when any
    other finding has [Error] severity, [0] otherwise.  The CLI exits [2]
    before either when a certificate is not [Verified]. *)

val to_json : report -> string
