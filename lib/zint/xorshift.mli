(** A small deterministic xorshift PRNG.  The same seed always gives the
    same stream, so random systems, test vectors, power estimates and
    equivalence spot checks are reproducible. *)

type t

val make : int -> t
(** A generator seeded with the given integer. *)

val next : t -> int -> int
(** [next rng bound] advances [rng] and returns a value in [\[0, bound)];
    [0] when [bound <= 0]. *)
