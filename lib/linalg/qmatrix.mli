(** Dense exact-rational matrices.

    Just enough linear algebra to solve the least-squares normal equations of
    the Savitzky-Golay workload generator exactly (no floating point anywhere
    in the flow).  Matrices are immutable. *)

type t

val make : int -> int -> (int -> int -> Polysynth_rat.Qint.t) -> t
(** [make rows cols f] builds the matrix with entry [f i j] at row [i],
    column [j].  @raise Invalid_argument on non-positive dimensions. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Polysynth_rat.Qint.t

val identity : int -> t
val transpose : t -> t

val mul : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val solve : t -> t -> t option
(** [solve a b] solves [a * x = b] for square non-singular [a] by
    Gauss-Jordan elimination with partial (non-zero) pivoting; [None] when
    [a] is singular.  @raise Invalid_argument on dimension mismatch. *)

val inverse : t -> t option
