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
    ones: the emitters name their internal wires, registers, counters,
    clock, reset and done signals, instance, word type and mask with it,
    avoiding every port.  The test is on prefixes, not on the names a
    caller goes on to generate, so [p] gains an underscore whenever some
    name merely starts with it (an input [nx] turns wires [n<k>] into
    [n_<k>]); names are unchanged only when no name in [names] starts
    with [p]. *)

val cell_value :
  reduce:(Z.t -> Z.t) -> op -> (string -> Z.t) -> (int -> Z.t) -> Z.t
(** [cell_value ~reduce op env arg] is [reduce] of the value of a cell
    [op] whose [k]-th operand has value [arg k], with an [Input v] reading
    [env v].  With [reduce] the residue modulo [2^width] it is wrap-around
    bit-vector arithmetic; any ring homomorphism of [Z] serves, since
    [+], [-] and [*] commute with it.  This is the one evaluation rule in
    [Zint]s: {!values} applies it cell by cell, and the equivalence
    certifier applies it to rings wider than 62 bits and to rebuild a
    counterexample.  Moduli that fit a machine word take {!compile}'s
    word form, which computes the same residues. *)

val interpret : t -> 'a -> (op -> (int -> 'a) -> 'a) -> 'a array
(** [interpret n init f] is every cell's [f op arg], indexed by cell id
    and computed in array order, where [arg k] is the result of the
    cell's [k]-th operand ([init] only fills the array first).
    {!values}, the equivalence certifier's degree bounds and coefficient
    bounds and its [Zint] point values, and [Absint]'s two facts (the
    pre-wrap interval the width lint reads, the constant [Simplify]
    reads) are such interpretations; point values in machine words come
    from {!eval_words}. *)

val live : t -> bool array
(** [live n] marks, by cell id, the cells some output reads, directly or
    through other cells. *)

val values : t -> (string -> Z.t) -> Z.t array
(** Bit-accurate evaluation in [Zint]s: every cell's value by
    {!cell_value}, indexed by cell id.  {!eval}, the emitters' expected
    values and {!Power} above 62 bits come from here; {!eval_words} of
    [compile (Pow2 n.width)] gives the same values as machine words. *)

val eval : t -> (string -> Z.t) -> (string * Z.t) list
(** The output values of {!values}, by output name and in output order. *)

(** {2 Machine-word evaluation} *)

type modulus =
  | Pow2 of int  (** [2^m], [0 <= m <= 62] *)
  | Prime of int  (** a prime [p], [2 <= p < 2^30] *)

type words
(** A netlist compiled for evaluation modulo one {!modulus}: per cell an
    operation tag, its fanin indices and its constant, reduced once (a
    [Shl k] becomes a multiplication by [2^k] reduced, which is [0] modulo
    [2^m] when [k >= m]). *)

val compile : modulus -> inputs:string list -> t -> words
(** [compile modulus ~inputs n] is [n]'s word form, with an [Input v]
    cell reading the slot of [v]'s position in [inputs].  The power
    estimate, the combination search's power scorer and the equivalence
    certifier evaluate through it.
    @raise Invalid_argument on a modulus out of range or an input of [n]
    absent from [inputs]. *)

val eval_words : words -> int array -> int array -> unit
(** [eval_words w inputs out] writes every cell's value, reduced into
    [[0, modulus)], into [out] by cell id, with each input read from
    [inputs] by slot and reduced first, whatever its sign.  The values
    are {!cell_value}'s residues: modulo [2^m] native ints wrap modulo
    [2^63], which [2^m] divides, so a mask after each operation is exact;
    modulo [p < 2^30] a product of residues stays below [2^60].  Nothing
    is allocated; [out] holds at least one slot per cell. *)

(** {2 Random input vectors} *)

val draw_word : Polysynth_zint.Xorshift.t -> width:int -> int
(** [draw_word rng ~width] is one random word in [[0, 2^width)] (in
    [[0, 2^60)] for [width >= 60]), from two 30-bit draws of [rng]. *)

val draw_words :
  Polysynth_zint.Xorshift.t -> width:int -> string list -> unit ->
  (string * Z.t) list
(** [draw_words rng ~width inputs] is a generator of random input vectors
    over an explicit input list: each call draws one {!draw_word} per
    name, in list order (so widths above 30 bits get full-range values).
    This is the one input draw; {!Power.toggles} draws the same words
    with {!draw_word} over the sorted input list of whatever it
    simulates. *)

val draw_inputs :
  Polysynth_zint.Xorshift.t -> t -> unit -> (string * Z.t) list
(** [draw_inputs rng n] is {!draw_words} over [n]'s width and {!inputs}.
    Test benches and C self-checks draw their vectors here. *)
