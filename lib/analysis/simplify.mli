(** Certificate-guarded netlist simplification.

    Consumes the per-cell constants of {!Absint.constants} and proposes
    local rewrites — constant folding, [x+0]/[x*1]/[x*0] identities,
    [0-x -> -x], multiply-by-constant strength reduction
    ([Mult2 -> Cmult], [Cmult 2^k -> Shl], [Cmult -1 -> Negate]) — plus
    dead-cell elimination.

    The guard is the point: {e every} candidate netlist is certified
    against the reference polynomial system its caller hands it, by
    {!Equiv.certify_netlist} under the ring context of the netlist's
    width, before it is accepted, so the pass can never change
    semantics.  A failing batch is retried one rewrite at a
    time, isolating an unsound proposal (caught as [Refuted] and surfaced
    as a ["simplify.unsound"] error diagnostic) while sound rewrites
    still land.  Because the certificate, not the analysis, vouches for
    every rewrite, the pass needs no fact beyond which cells are
    constants. *)

module Z := Polysynth_zint.Zint
module Netlist := Polysynth_hw.Netlist
module Poly := Polysynth_poly.Poly

type action =
  | Fold of Z.t  (** replace the cell by a constant *)
  | Forward of int  (** route the cell's users to another cell *)
  | Reop of Netlist.op * int list  (** change operator and fanin *)

type rewrite = { cell : int; action : action; reason : string }

val describe : rewrite -> string

type stats = {
  proposed : int;
  applied : int;
  rejected : int;
  certificates : int;  (** [Equiv] runs spent guarding the pass *)
  cells_before : int;
  cells_after : int;
}

type outcome = {
  netlist : Netlist.t;  (** always certified equal to (or identical with)
                            the input *)
  applied : rewrite list;
  rejected : (rewrite * Equiv.cert) list;
  stats : stats;
}

val cells_eliminated : outcome -> int

val run :
  ?facts:Domains.Const.t array ->
  system:(string * Poly.t) list ->
  Netlist.t ->
  outcome
(** The guarded pass.  [system] is the reference: the polynomial each
    output of the netlist must compute, by output name.  The reference
    comes from the caller alone, and the pass never skips: every
    candidate is certified against it.  [facts] reuses an existing
    {!Absint.constants} analysis.
    @raise Invalid_argument when [system] does not name every output of
    the netlist. *)

val diags_of_outcome : outcome -> Diag.t list
(** Findings for {!Suite}: ["simplify.summary"] / ["simplify.rewrite"] /
    ["simplify.uncertified"] infos, plus a ["simplify.unsound"] {e error}
    for every rewrite the certificate refuted; at most 20 applied and 20
    rejected rewrites are listed. *)
