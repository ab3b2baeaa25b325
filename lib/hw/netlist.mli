(** Operator-level netlists.

    A netlist is the hardware view of an expression DAG: one cell per live
    operator, with constant multiplications classified separately (they
    synthesize to shift-add networks, much cheaper than a general
    multiplier).  The cost model and the Verilog emitter both work from this
    representation, mirroring the paper's hand-off of each decomposition to
    Synopsys Design Compiler. *)

module Z := Polysynth_zint.Zint
module Dag := Polysynth_expr.Dag

type op =
  | Input of string
  | Constant of Z.t
  | Negate
  | Add2
  | Sub2
  | Mult2  (** general multiplier *)
  | Cmult of Z.t  (** multiplication by a constant *)
  | Shl of int  (** left shift by a constant amount: free wiring *)

type cell = { id : int; op : op; fanin : int list }

type t = {
  cells : cell array;  (** topologically ordered: fanin ids precede users *)
  outputs : (string * int) list;
  width : int;  (** operand bit-width *)
}

val lower_node : Dag.t -> Dag.id -> op * Dag.id list
(** The operator a DAG node lowers to, with the nodes it reads: a
    multiplication with exactly one constant operand becomes a [Cmult]
    that embeds the constant and reads only the other operand.  This is
    the rule {!of_dag} applies to every live node. *)

val of_dag : width:int -> Dag.t -> outputs:(string * Dag.id) list -> t
(** Keep only the nodes reachable from the outputs; multiplications with a
    constant operand become [Cmult] cells (the constant cell itself is kept
    only if some other cell still reads it). *)

val of_prog : width:int -> Polysynth_expr.Prog.t -> t

val num_cells : t -> int
val inputs : t -> string list

val op_to_string : op -> string

val fresh_prefix : string list -> string -> string
(** [fresh_prefix names p] is [p] followed by the fewest underscores that
    make it the prefix of no name in [names], so neither it nor any name
    that starts with it (such as [p] followed by a cell id) is one of
    [names].  This is the one rule by which generated names avoid given
    ones: {!to_prog} names its bindings with it, and the emitters name
    their internal wires, registers and counters with it, avoiding every
    port.  The test is on prefixes, not on the names a caller goes on to
    generate, so [p] gains an underscore whenever some name merely starts
    with it (an input [nx] turns wires [n<k>] into [n_<k>]); names are
    unchanged only when no name in [names] starts with [p]. *)

val to_prog : t -> Polysynth_expr.Prog.t
(** Lift the netlist back into a straight-line program: one binding per
    operator cell (inputs and constants are inlined), outputs preserved
    by name and order.  Binding names are chosen so they cannot shadow an
    input variable.  Because reduction mod [2^width] is a ring
    homomorphism for [+], [-] and [*], the program denotes the same
    outputs as {!eval} once results are reduced mod [2^width] — this is
    what lets {!Polysynth_analysis.Equiv} certify netlist rewrites. *)

val cell_value :
  width:int -> op -> (string -> Z.t) -> (int -> Z.t) -> Z.t
(** [cell_value ~width op env arg] is the value of a cell [op] whose
    [k]-th operand has value [arg k], with an [Input v] reading [env v],
    reduced into [[0, 2^width)] (wrap-around bit-vector arithmetic).  This
    is the one evaluation rule: {!values} applies it cell by cell, and the
    combination search applies it to the nodes of its shared DAG. *)

val values : t -> (string -> Z.t) -> Z.t array
(** Bit-accurate evaluation: every cell's value by {!cell_value},
    indexed by cell id.  {!eval}, {!Power} and the emitters' expected
    values all come from here. *)

val eval : t -> (string -> Z.t) -> (string * Z.t) list
(** The output values of {!values}, by output name and in output order. *)

val draw_words :
  Polysynth_zint.Xorshift.t -> width:int -> string list -> unit ->
  (string * Z.t) list
(** [draw_words rng ~width inputs] is a generator of random input vectors
    over an explicit input list: each call draws one word in
    [[0, 2^width)] per name, in list order, from two 30-bit draws of [rng]
    (so widths above 30 bits get full-range values).  This is the one
    input draw; {!Power.toggles} calls it with the sorted input list of
    whatever it simulates. *)

val draw_inputs :
  Polysynth_zint.Xorshift.t -> t -> unit -> (string * Z.t) list
(** [draw_inputs rng n] is {!draw_words} over [n]'s width and {!inputs}.
    Test benches and C self-checks draw their vectors here. *)
