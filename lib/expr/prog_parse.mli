(** Text syntax for straight-line programs (decompositions).

    One definition per line (or [';']-separated):
    {v
      d1 = x + 3*y
      P1 = d1^2          # comments run to end of line
      P2 = 4*y^2*d1
    v}
    Right-hand sides use the polynomial grammar of
    {!Polysynth_poly.Parse} and may reference earlier definitions by
    name.  Names defined but never referenced by a later definition are
    the program's outputs; referenced names become bindings.  This lets a
    user hand a candidate decomposition to the cost model and the
    verifier. *)

type error = [ `Parse of string ]
(** Shared with {!Polysynth_poly.Parse.error} so callers can handle both
    parsers with one match. *)

exception Parse_error of string
(** Raised by {!program_exn} only. *)

val program : string -> (Prog.t, error) result
(** [Error (`Parse _)] on malformed input, duplicate definitions, a
    definition that refers to itself, forward references, or programs
    with no outputs. *)

val program_exn : string -> Prog.t
(** @raise Parse_error under the same conditions. *)
