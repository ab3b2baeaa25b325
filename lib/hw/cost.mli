(** Technology cost model: the stand-in for the paper's Synopsys Design
    Compiler runs.

    Area is reported in gate equivalents and delay in abstract gate-delay
    units.  The default model uses textbook datapath shapes: an array
    multiplier quadratic in the width, carry-lookahead-style adders linear
    in the width with logarithmic delay, and constant multipliers
    synthesized as CSD (canonical signed digit) shift-add networks whose
    size follows the number of non-zero digits of the constant.  Absolute
    numbers differ from a real standard-cell flow, but relative comparisons
    between decompositions — which is what Table 14.3 reports — are driven
    by operator counts and DAG depth, which are exact here. *)

module Z := Polysynth_zint.Zint

type model = {
  mult_area : int -> int;
  cmult_area : int -> Z.t -> int;
  add_area : int -> int;
  neg_area : int -> int;
  mult_delay : int -> float;
  cmult_delay : int -> Z.t -> float;
  add_delay : int -> float;
  neg_delay : int -> float;
  fanout_delay : float;
      (** extra delay per additional load on a cell's output; this is what
          makes widely shared building blocks slower than duplicated
          logic, reproducing the area-vs-delay trade of Table 14.3 *)
}

val default : model

val csd_digits : Z.t -> int
(** Number of non-zero digits in the canonical signed-digit (non-adjacent
    form) representation; 0 for zero, 1 for powers of two. *)

val cell_area : model -> int -> Netlist.op -> int
(** Gate equivalents of one cell at the given operand width: inputs,
    constants and shifts are free wiring. *)

val cell_delay : model -> int -> Netlist.op -> float
(** Delay of one cell at the given operand width, before fanout load.
    These two are the price list every costing of a netlist or DAG reads:
    {!of_netlist}, {!Power}, {!Stage} and the search's scorer. *)

type report = {
  area : int;  (** total gate equivalents *)
  delay : float;  (** critical path through the netlist *)
  num_mults : int;  (** general multipliers *)
  num_cmults : int;  (** constant multipliers *)
  num_adds : int;  (** adders and subtractors *)
}

val total_operators : report -> int

val of_netlist : ?model:model -> Netlist.t -> report

val of_prog : ?model:model -> width:int -> Polysynth_expr.Prog.t -> report

val pp_report : Format.formatter -> report -> unit
