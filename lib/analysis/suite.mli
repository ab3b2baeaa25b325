(** The analysis suite: one entry point running every pass in order.

    Pass ordering is load-bearing.  Well-formedness runs first and gates
    everything else: width propagation, equivalence certification, the
    redundancy lint, the scheduler/binder cross-check and the simplify
    pass all assume a single-assignment, acyclic program, so a
    structurally broken input yields only the well-formedness findings and
    an [Unknown] certificate rather than garbage downstream results.

    Every pass runs on every call; only certification is optional.  The
    scheduler/binder cross-check schedules and binds on a one-multiplier,
    one-adder budget and re-checks both results with
    {!Polysynth_hw.Schedule.is_valid} and {!Polysynth_hw.Bind.is_consistent}.
    Certification and the simplify pass use 8 random samples as their
    pre-filter. *)

module Poly := Polysynth_poly.Poly
module Prog := Polysynth_expr.Prog
module Canonical := Polysynth_finite_ring.Canonical

type config = {
  ctx : Canonical.ctx option;
      (** ring context; selects [Ring] width mode and [Z_2^m] certification *)
  width : int;  (** datapath width the program is lowered at *)
  system : Poly.t list option;
      (** source system to certify against; [None] skips certification *)
  check : bool;  (** run equivalence certification *)
}

val default : width:int -> config
(** Certification on, no ring context, no source system. *)

type report = {
  wellformed : Diag.t list;
  widths : Diag.t list;
  redundancy : Diag.t list;
  binding : Diag.t list;
      (** [bind.*] findings; always [Error] severity — a violation here
          is a scheduler/binder bug, not a property of the input *)
  simplify : Diag.t list;  (** [simplify.*] findings *)
  cert : Equiv.cert option;
      (** [None] only when certification was not requested or no source
          system was given *)
}

val analyze : config -> Prog.t -> report

val diags : report -> Diag.t list
(** All findings of all passes, sorted by severity. *)

val exit_code : report -> int
(** The CLI/CI contract: [2] when the certificate is [Refuted] or
    [Unknown] (the result is not proven), [4] when the scheduler/binder
    cross-check failed (an internal invariant violation), [3] when any
    other finding has [Error] severity, [0] otherwise. *)

val to_json : report -> string
