(** Combination selection — lines 18-24 of Algorithm 7.

    A combination assigns one representation to each polynomial; its cost
    is measured {e after} CSE, i.e. on the hash-consed DAG of the whole
    program (shared building blocks are counted once).  All
    representations of a system are interned once into one shared DAG, and
    each combination is costed on the part of it live from the
    combination's roots, with exactly the area, delay, operator counts and
    power estimate that lowering the combination's own program would
    give.  Small systems
    are searched exhaustively; large ones by coordinate descent (at most
    4 passes), re-optimizing one polynomial at a time against the sharing
    created by the others. *)

module Prog := Polysynth_expr.Prog
module Dag := Polysynth_expr.Dag
module Cost := Polysynth_hw.Cost
module Netlist := Polysynth_hw.Netlist

type objective =
  | Min_area  (** the paper's objective *)
  | Min_delay
  | Min_power  (** switching-activity estimate — the paper's future work *)
  | Min_ops  (** raw post-CSE operator count *)

type options = {
  width : int;  (** datapath bit-width, for the area/delay model *)
  model : Cost.model;
  objective : objective;
  exhaustive_limit : int;
      (** combination count up to which the search is exhaustive *)
  budget : (unit -> bool) option;
      (** "may another combination be evaluated?"  When it returns [false]
          the search stops early and keeps the best candidate found so far
          (the first candidate is always evaluated).  [None] = unlimited.
          The engine threads its shared time/candidate budget through
          here. *)
}

val default_options : width:int -> options
(** Objective defaults to [Min_area]; no budget. *)

val score : options -> Prog.t -> float array
(** The lexicographic objective key of a program under the options
    (exposed so that whole-system decompositions outside the
    representation search can compete on equal terms).  It lowers the
    program to its own DAG and netlist and, under [Min_power], runs
    {!Polysynth_hw.Power.estimate} with 16 samples on that netlist.  The
    search does not call it: it scores every objective on one shared DAG
    ({!scorer}), and tests use this function as its oracle. *)

val measure : options -> Prog.t -> Netlist.t * Cost.report * Dag.counts
(** The netlist a program lowers to at [options.width], its cost report
    and the program's operator counts, all from one lowering (no
    objective key, so no power estimate). *)

val score_full :
  options -> Prog.t -> float array * (Netlist.t * Cost.report * Dag.counts)
(** {!score} together with the {!measure} it was computed from. *)

type selection = {
  prog : Prog.t;  (** chosen representations, with used block bindings *)
  key : float array;
      (** its objective key as the scorer computed it; equals
          [score options prog] *)
  labels : string list;  (** chosen representation label per polynomial *)
  netlist : Netlist.t;  (** [prog] lowered, as {!measure} gives it *)
  cost : Cost.report;
  counts : Dag.counts;
  combinations_evaluated : int;
  exhaustive : bool;
  budget_exhausted : bool;
      (** the budget callback stopped the search before it finished *)
}

val prog_of_choice : Represent.t -> Represent.rep list -> Prog.t
(** Assemble a program from one representation per polynomial, including
    exactly the block bindings the expressions use. *)

val scorer : options -> Represent.t -> int array -> float array
(** [scorer options r] prepares the scoring of combinations of [r]; the
    returned function maps a combination (the index of the chosen
    representation of each polynomial) to its key, which equals
    [score options (prog_of_choice r choice)].

    The preparation interns every representation and every block binding
    into one shared DAG, and each call walks only the nodes live from the
    combination's roots, under all four objectives.  Area, operator
    counts and delay come from the walk.  Under [Min_power] the
    preparation also records each live node's
    {!Polysynth_hw.Power.cell_area}, and the first combination with a
    given input list (the sorted names of the inputs a combination reads,
    which a ring-canonical representation can shrink) simulates every
    node's toggle counts under it by one {!Polysynth_hw.Power.toggles}
    call.  A combination's power is {!Polysynth_hw.Power.total} of the
    integer sums of toggles x area and of area over the nodes it visits.
    Integer sums have no order, so this equals the estimate on the
    combination's own netlist, whose cells come in another order.  The
    other objectives build none of these tables.  The returned function
    reuses scratch arrays, so call it from one domain at a time. *)

val select : options -> Represent.t -> selection
(** Search the combinations of [r] and return the best one under the
    objective, scored by {!scorer}.  The visiting order is fixed (an
    odometer when exhaustive, coordinate descent otherwise) and a later
    combination replaces the best only when its key is strictly smaller,
    so ties go to the first one visited. *)
