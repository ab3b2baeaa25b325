(** Structured arithmetic expressions: the output language of every
    decomposition stage.

    Where {!Polysynth_poly.Poly} is a flat sum-of-products normal form, an
    expression keeps the factored structure a decomposition found (e.g.
    [13*(x+y)^2 + 7*(x-y) + 11]), which is what determines hardware cost.
    Values are normalized just enough to make structurally-equal computations
    compare equal: operand lists are flattened and sorted, constants folded,
    signs pulled out of products. *)

module Z := Polysynth_zint.Zint
module Poly := Polysynth_poly.Poly

type t = private
  | Const of Z.t  (** a non-negative constant *)
  | Var of string
  | Neg of t  (** free in hardware cost: absorbed into adders/subtractors *)
  | Add of t list  (** >= 2 operands, sorted *)
  | Mul of t list  (** >= 2 operands, sorted, at most one trailing constant *)
  | Pow of t * int  (** exponent >= 2 *)

(** {1 Smart constructors} *)

val const : Z.t -> t
val int : int -> t
val var : string -> t
val neg : t -> t
val add : t list -> t
val sub : t -> t -> t
val mul : t list -> t
val pow : t -> int -> t
(** @raise Invalid_argument on a negative exponent. *)

val zero : t
val one : t

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Conversions} *)

val of_poly : Poly.t -> t
(** Direct sum-of-products form (what a naive implementation computes). *)

val to_poly : t -> Poly.t
(** Expand back to the flat normal form.  Every decomposition of a
    polynomial must satisfy [to_poly (decomposition p) = p]; the test suites
    rely on this. *)

val eval : (string -> Z.t) -> t -> Z.t

val subst : (string -> t option) -> t -> t
(** Replace variables; used to inline named building blocks. *)

(** {1 Structure} *)

val vars : t -> string list
(** Sorted, without duplicates. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
