(** Pipeline staging: cut a combinational netlist at register boundaries
    so that every stage meets a target clock period.

    Greedy ASAP staging over the topological order: a cell moves to the
    next stage when appending it would exceed the period.  The report
    gives the pipeline depth, the register cost of the cut (one register
    per value per crossed boundary) and the period actually achieved —
    the other side of the paper's area/delay trade for sharing-heavy
    decompositions, whose deep chains pipeline into more stages. *)

type staging = {
  stage_of : int array;  (** per cell id, starting at 0 *)
  num_stages : int;
  pipeline_registers : int;
      (** sum over values of the number of stage boundaries they cross *)
  achieved_period : float;
      (** max per-stage critical path; can exceed the target only when a
          single operator is slower than the target *)
}

val cut :
  ?model:Cost.model -> target_period:float -> Netlist.t -> staging
(** @raise Invalid_argument on a non-positive target. *)
