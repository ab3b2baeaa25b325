(** Naming table for shared building blocks.

    Divisor blocks get names [d1, d2, ...] (as in the paper's worked
    examples); falling-factorial base blocks [Y_2(x) = x*(x-1)] get names
    derived from their variable.  A name never repeats one the table was
    told to avoid (the variables of the system it serves), so a block can
    not shadow an input.  Every block definition refers only to the input
    variables, so the bindings can be emitted in registration order. *)

module Poly := Polysynth_poly.Poly
module Expr := Polysynth_expr.Expr

type t

val create : ?avoid:string list -> unit -> t
(** [avoid] (default none): names no block may take; a clashing name is
    skipped ([d<n>]) or suffixed ([y2_v_<k>]). *)

val divisor_var : t -> Poly.t -> string
(** Register (or look up) a divisor block for the given normalized
    polynomial; its definition is the direct expression of the polynomial
    (divisors are linear, so the direct form is already optimal). *)

val y2_var : t -> string -> string
(** Register (or look up) the block [Y_2(v) = v*(v - 1)]. *)

val bindings : t -> (string * Expr.t) list
(** All registered definitions, in registration order. *)
