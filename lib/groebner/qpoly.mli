(** Multivariate polynomials with rational coefficients under a
    {e configurable} monomial order — the working representation of the
    Buchberger machinery (Gröbner computations need elimination orders,
    which the main {!Polysynth_poly.Poly} type's fixed graded-lex order
    cannot express, and rational coefficients so that reductions are
    always exact).

    Not on the synthesis path: kept only for {!Buchberger}, which serves
    the ["groebner.rewrite"] probe of perfbench's traced replay. *)

module Z := Polysynth_zint.Zint
module Q := Polysynth_rat.Qint
module Monomial := Polysynth_poly.Monomial
module Poly := Polysynth_poly.Poly

(** {1 Monomial orders} *)

type order = Monomial.t -> Monomial.t -> int

val grlex : order
(** The default graded-lex order of {!Monomial.compare}. *)

val lex : string list -> order
(** Pure lexicographic order with the given variable priority (earlier in
    the list = more significant); variables not listed rank below all
    listed ones, ordered alphabetically.  This is the elimination order
    used to rewrite a polynomial in terms of library blocks. *)

(** {1 Polynomials} *)

type t
(** Terms sorted descending under the order fixed at construction. *)

val of_poly : order -> Poly.t -> t
val zero : order -> t
val const : order -> Q.t -> t
val order_of : t -> order
val is_zero : t -> bool
val terms : t -> (Q.t * Monomial.t) list

val leading : t -> Q.t * Monomial.t
(** @raise Invalid_argument on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : Q.t -> t -> t
val mul_term : Q.t -> Monomial.t -> t -> t
val monic : t -> t
val equal : t -> t -> bool

val to_poly : t -> Poly.t * Z.t
(** [(p, d)] with the input equal to [p / d], [p] an integer polynomial
    and [d > 0] the common denominator. *)
