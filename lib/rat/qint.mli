(** Exact rational numbers over {!Polysynth_zint.Zint}.

    Values are kept normalized: the denominator is positive and coprime with
    the numerator; zero is [0/1].  Used by the least-squares workload
    generators and the exact linear-algebra substrate. *)

type t

val den : t -> Polysynth_zint.Zint.t
(** [den q] is always positive. *)

val zero : t
val one : t
val minus_one : t

val of_zint : Polysynth_zint.Zint.t -> t
val of_int : int -> t

val is_zero : t -> bool
val is_integer : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val to_zint_exn : t -> Polysynth_zint.Zint.t
(** @raise Failure when the value is not an integer. *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
end
