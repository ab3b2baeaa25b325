(** Power products of variables ("cubes" without sign/coefficient in the
    paper's terminology, e.g. [x^2*y]).

    A monomial maps variable names to strictly positive exponents.  The
    ordering is graded lexicographic: higher total degree first, then
    lexicographic on variable names.

    Internally variables are interned through {!Symtab} and a monomial is
    a packed integer array carrying a precomputed hash and total degree:
    [degree], [hash] and the negative case of [equal] are O(1), and
    [compare]/[mul]/[div]/[gcd]/[lcm] are integer-only merge loops.  The
    string-based API below is unchanged and remains the public surface. *)

type t

val one : t
(** The empty power product. *)

val var : ?exp:int -> string -> t
(** [var x] is the monomial [x]; [var ~exp:k x] is [x^k].
    @raise Invalid_argument when [exp <= 0] or the name is empty. *)

val of_list : (string * int) list -> t
(** Duplicates are combined; zero exponents dropped.
    @raise Invalid_argument on a negative exponent. *)

val to_list : t -> (string * int) list
(** Sorted by variable name. *)

val is_one : t -> bool
val degree : t -> int
(** Total degree. *)

val degree_of : string -> t -> int
(** Exponent of the given variable (0 when absent). *)

val vars : t -> string list
(** Sorted variable names. *)

val mentions : string -> t -> bool

(** {2 Interned-id views}

    Hot loops that repeatedly probe the same variables can pre-intern the
    names once (via {!Symtab.intern}) and use these id-level entry points,
    skipping the per-call name lookup. *)

val var_ids : t -> int array
(** The interned ids of the monomial's variables, in name order. *)

val mentions_id : int -> t -> bool
(** [mentions_id (Symtab.intern v) m] = [mentions v m]. *)

val var_of_id : int -> t
(** The exponent-1 monomial of an interned variable id (physically
    shared).  @raise Invalid_argument on an unknown id. *)

val fold : ('a -> string -> int -> 'a) -> 'a -> t -> 'a
(** [fold f acc m] folds over the (variable, exponent) pairs in name
    order without building the intermediate list of {!to_list}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Graded lexicographic order. *)

val hash : t -> int
(** Precomputed structural hash (O(1)). *)

val mul : t -> t -> t

val divides : t -> t -> bool
(** [divides d m]: every exponent of [d] is at most that of [m]. *)

val div : t -> t -> t option
(** [div m d] is [Some (m/d)] when [d] divides [m]. *)

val gcd : t -> t -> t
val lcm : t -> t -> t

val remove_var : string -> t -> t
(** Drop one variable entirely. *)

val eval : (string -> Polysynth_zint.Zint.t) -> t -> Polysynth_zint.Zint.t

val to_string : t -> string
