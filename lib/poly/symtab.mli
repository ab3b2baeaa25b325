(** Interning of variable names to dense integer ids.

    The symbol table is global and append-only: a name, once interned,
    keeps its id for the lifetime of the process, and ids are dense
    ([0 .. size () - 1]).  Alongside the id the table maintains each
    variable's {e alphabetical rank} among all interned names, which is
    what the monomial order compares — so the interned representation
    preserves the alphabetical graded-lex semantics of the original
    string-keyed one exactly, while comparing variables with integer
    loads.

    All operations are domain-safe: lookups are lock-free reads of an
    immutable snapshot, interning publishes a fresh snapshot under a
    lock. *)

val intern : string -> int
(** The id of the name, interning it first if needed.
    @raise Invalid_argument on the empty string. *)

val find : string -> int option
(** The id of an already-interned name, without interning. *)

val name_of : int -> string
(** Inverse of {!intern}.  @raise Invalid_argument on an unknown id. *)

val ranks : unit -> int array
(** The current id -> rank table as one consistent snapshot; index it with
    ids obtained before the call.  An id's rank is the alphabetical rank
    of its name among all interned names: ranks shift as new names are
    interned, but the relative order of two fixed ids never changes.
    Taking one snapshot per bulk operation is the intended hot-path
    usage. *)

val size : unit -> int
(** Number of interned names. *)
