(** Dense univariate polynomial arithmetic over a small prime field F_p.

    Polynomials are coefficient arrays (least significant first, no
    trailing zeros), with coefficients in [[0, p)].  The prime must stay
    below [2^30] so products fit in a native [int]; the factorization
    driver only ever picks small primes.

    Not on the synthesis path: kept only for {!Factorize}, which serves
    the ["factor.factorize"] probe of perfbench's traced replay. *)

type t = int array

val of_list : p:int -> int list -> t
val zero : t
val one : t
val is_zero : t -> bool
val degree : t -> int
(** [-1] for zero. *)

val lc : t -> int
(** Leading coefficient.  @raise Invalid_argument on zero. *)

val equal : t -> t -> bool

val add : p:int -> t -> t -> t
val sub : p:int -> t -> t -> t
val mul : p:int -> t -> t -> t
val scale : p:int -> int -> t -> t

val divmod : p:int -> t -> t -> t * t
(** Euclidean division (the divisor's leading coefficient is inverted
    mod p).  @raise Division_by_zero on a zero divisor. *)

val gcd : p:int -> t -> t -> t
(** Monic gcd; [gcd 0 0 = 0]. *)

val extended_gcd : p:int -> t -> t -> t * t * t
(** [(g, s, t)] with [s*a + t*b = g], [g] the monic gcd. *)

val monic : p:int -> t -> t
val derivative : p:int -> t -> t
val pow_mod : p:int -> t -> int -> modulus:t -> t
(** [base^e mod modulus]. *)

val eval : p:int -> t -> int -> int

val inv_mod_p : p:int -> int -> int
(** Inverse in F_p.  @raise Division_by_zero on zero. *)

val of_zpoly : p:int -> string -> Polysynth_poly.Poly.t -> t
(** Reduce an (integer, univariate in the given variable) polynomial
    mod p. *)
