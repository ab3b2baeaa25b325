(** A bounded FIFO memo table, safe to share across domains.

    The engine's representation store and the kernelling memo are both
    this table.  Lookups are [find] then [add]: the caller computes a
    missing value outside the lock, so a race between domains costs at
    most duplicated work.  Once [capacity] keys are held, adding a new key
    evicts the oldest one. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  val create : int -> 'a t
  (** An empty table holding at most the given number of keys. *)

  val find : 'a t -> K.t -> 'a option
  (** The cached value, counted as a hit, or [None], counted as a miss. *)

  val add : 'a t -> K.t -> 'a -> unit
  (** Cache a value, replacing any held for the same key. *)

  val clear : 'a t -> unit
  (** Drop every entry and reset the counters. *)

  val stats : 'a t -> int * int
  (** Hits and misses since creation or the last [clear]. *)
end
