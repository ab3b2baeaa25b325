(** Switching-activity power estimation — the paper's stated future work
    ("we would like to investigate the use of algebraic transformations in
    low-power synthesis of arithmetic datapaths").

    Dynamic power of a cell is modelled as (toggle activity of its output)
    x (its area, as a capacitance proxy).  Activity is measured by
    bit-accurate simulation of the netlist on a deterministic stream of
    random input vectors: for consecutive vectors, the Hamming distance of
    each cell's output value is accumulated.  Deterministic: the stream
    always starts from the same seed.

    Over cells [i] with toggle counts [t_i] and areas [a_i] (under
    {!Cost.default}), the model is
    [dynamic = float (Σ t_i × a_i) / samples] with the sum taken in
    integers, and [leakage = 0.01 × Σ a_i].  An integer sum has no order,
    so any caller that visits the same cells, in any order, gets the same
    floats. *)

module Z := Polysynth_zint.Zint

type report = {
  dynamic : float;  (** sum over cells of activity x area, in
                        gate-equivalent toggle units *)
  leakage : float;  (** proportional to total area *)
  total : float;
}

val estimate : ?samples:int -> Netlist.t -> report
(** [samples] (default 64) is the number of input transitions simulated.
    The toggles come from {!toggles} over {!Netlist.inputs}. *)

val toggles : samples:int -> Netlist.t -> string list -> int array
(** [toggles ~samples n] readies [n] for simulation once; applied to a
    sorted input list [inputs], it simulates [samples + 1] input vectors
    drawn as {!Netlist.draw_words} over [inputs] draws them (from seed 1),
    with every input of [n] outside [inputs] reading zero, and returns,
    per cell id, the Hamming distances of consecutive cell values summed
    over the [samples] transitions.  Values are reduced into
    [[0, 2^width)].  Up to 62 bits the netlist runs in machine words
    ({!Netlist.compile}) and a distance is the popcount of an exclusive
    or; wider netlists run through {!Netlist.values}. *)

val cell_area : width:int -> Netlist.op -> int
(** A cell's capacitance proxy: its area under {!Cost.default}, whatever
    cost model the synthesis uses. *)

val total : samples:int -> switched:int -> area:int -> float
(** {!report}'s [total], from [switched = Σ t_i × a_i] and [area = Σ a_i]
    over the cells. *)

val hamming_distance : Z.t -> Z.t -> int -> int
(** [hamming_distance a b w]: the number of bit positions in which [a] and
    [b], both in [[0, 2^w)], differ.  Native ints compare in one xor;
    wider values are compared 30 bits at a time.  {!toggles} calls it
    above 62 bits only. *)

val pp_report : Format.formatter -> report -> unit
