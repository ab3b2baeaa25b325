(** Width soundness: does every intermediate fit the declared datapath?

    Interval (value-range) propagation over the netlist
    ({!Absint.intervals}, inputs unsigned full-scale [[0, 2^width - 1]])
    proves, for every cell, the exact reachable
    interval before wrap-around and the two's-complement width that would
    hold it.  That answers the practical RTL question the paper's
    fixed-width model raises: how much precision do the intermediates of
    a decomposition need?  A cell whose required width exceeds the
    declared datapath width is:

    - an {e intentional} [Z_2^m] truncation when the system was
      synthesized under ring semantics ([Ring] mode) — reported as [Info],
      because wrap-around is the defined behaviour there;
    - a {e silent overflow hazard} under exact integer semantics
      ([Exact] mode) — reported as [Warning]: for some input vector the
      hardware result differs from the integer polynomial. *)

module Z := Polysynth_zint.Zint
module Netlist := Polysynth_hw.Netlist

type mode =
  | Exact  (** results must equal the integer polynomial *)
  | Ring  (** results are defined modulo [2^width] *)

val required_width : lo:Z.t -> hi:Z.t -> int
(** Bits of a two's-complement representation holding every value of
    [[lo, hi]] (at least 1). *)

val max_required_width : Netlist.t -> int
(** The widest cell of the netlist, inputs included: an unsigned [w]-bit
    input needs [w + 1] two's-complement bits. *)

val growth : Netlist.t -> int
(** [max_required_width] minus the datapath width (0 when nothing
    outgrows the datapath). *)

val check_netlist : mode:mode -> Netlist.t -> Diag.t list
(** Codes: [width.overflow] (warning, [Exact] mode), [width.wrap] (info,
    [Ring] mode).  At most 20 per-cell findings are emitted, followed by
    one summary diagnostic counting the rest. *)
