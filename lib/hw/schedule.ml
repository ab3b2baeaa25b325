type resources = { multipliers : int; adders : int }

(* the latency model: two-cycle multipliers, single-cycle adders *)
let mult_cycles = 2
let add_cycles = 1

type schedule = {
  start_step : int array;
  latency : int;
}

type unit_class = Free | Mult_unit | Add_unit

let class_of op =
  match (op : Netlist.op) with
  | Netlist.Input _ | Netlist.Constant _ | Netlist.Negate | Netlist.Shl _ ->
    Free
  | Netlist.Mult2 -> Mult_unit
  | Netlist.Add2 | Netlist.Sub2 | Netlist.Cmult _ -> Add_unit

let duration op =
  match class_of op with
  | Free -> 0
  | Mult_unit -> mult_cycles
  | Add_unit -> add_cycles

let asap (n : Netlist.t) =
  let start = Array.make (Array.length n.Netlist.cells) 0 in
  Array.iter
    (fun cell ->
      let ready =
        List.fold_left
          (fun acc i ->
            Stdlib.max acc (start.(i) + duration n.Netlist.cells.(i).Netlist.op))
          0 cell.Netlist.fanin
      in
      start.(cell.Netlist.id) <- ready)
    n.Netlist.cells;
  start

let finish_time (n : Netlist.t) start =
  Array.fold_left
    (fun acc cell ->
      Stdlib.max acc (start.(cell.Netlist.id) + duration cell.Netlist.op))
    0 n.Netlist.cells

let critical_path_latency n = finish_time n (asap n)

(* ALAP start times for priority (slack) computation *)
let alap (n : Netlist.t) deadline =
  let cells = n.Netlist.cells in
  let late = Array.make (Array.length cells) deadline in
  (* initialize: every cell may finish by the deadline *)
  Array.iteri
    (fun i cell -> late.(i) <- deadline - duration cell.Netlist.op)
    cells;
  (* walk in reverse topological order, tightening producers *)
  for i = Array.length cells - 1 downto 0 do
    let cell = cells.(i) in
    List.iter
      (fun src ->
        let bound = late.(cell.Netlist.id) - duration cells.(src).Netlist.op in
        if bound < late.(src) then late.(src) <- bound)
      cell.Netlist.fanin
  done;
  late

let list_schedule resources (n : Netlist.t) =
  if resources.multipliers < 1 || resources.adders < 1 then
    invalid_arg "Schedule.list_schedule: need at least one unit per class";
  let cells = n.Netlist.cells in
  let num = Array.length cells in
  let late = alap n (critical_path_latency n) in
  let start = Array.make num (-1) in
  let finished = Array.make num (-1) in
  (* inputs/constants/negations are free: schedule them as soon as their
     fanin is done (negation is absorbed into the consuming adder) *)
  let unscheduled = ref [] in
  Array.iter
    (fun cell ->
      if class_of cell.Netlist.op = Free && cell.Netlist.fanin = [] then begin
        start.(cell.Netlist.id) <- 0;
        finished.(cell.Netlist.id) <- 0
      end
      else unscheduled := cell :: !unscheduled)
    cells;
  let unscheduled = ref (List.rev !unscheduled) in
  let step = ref 0 in
  let busy_until_mult = ref [] and busy_until_add = ref [] in
  (* busy_until_* holds the finish step of each occupied unit *)
  let available busy limit t =
    let in_use = List.length (List.filter (fun f -> f > t) busy) in
    in_use < limit
  in
  while !unscheduled <> [] do
    let t = !step in
    (* cells whose operands are finished by t *)
    let ready, rest =
      List.partition
        (fun cell ->
          List.for_all
            (fun src -> finished.(src) >= 0 && finished.(src) <= t)
            cell.Netlist.fanin)
        !unscheduled
    in
    let ready =
      List.sort
        (fun a b ->
          let c = Stdlib.compare late.(a.Netlist.id) late.(b.Netlist.id) in
          if c <> 0 then c else Stdlib.compare a.Netlist.id b.Netlist.id)
        ready
    in
    let leftover =
      List.filter
        (fun cell ->
          let id = cell.Netlist.id in
          match class_of cell.Netlist.op with
          | Free ->
            start.(id) <- t;
            finished.(id) <- t;
            false
          | Mult_unit ->
            if available !busy_until_mult resources.multipliers t then begin
              start.(id) <- t;
              finished.(id) <- t + mult_cycles;
              busy_until_mult := (t + mult_cycles) :: !busy_until_mult;
              false
            end
            else true
          | Add_unit ->
            if available !busy_until_add resources.adders t then begin
              start.(id) <- t;
              finished.(id) <- t + add_cycles;
              busy_until_add := (t + add_cycles) :: !busy_until_add;
              false
            end
            else true)
        ready
    in
    unscheduled := leftover @ rest;
    incr step;
    if !step > 4 * (num + 1) * (mult_cycles + add_cycles) then begin
      let stuck = List.length !unscheduled in
      invalid_arg
        (Printf.sprintf
           "Schedule.list_schedule: no progress after %d steps: %d cell%s \
            still unscheduled (the netlist is not topologically ordered)"
           !step stuck
           (if stuck = 1 then "" else "s"))
    end
  done;
  { start_step = start; latency = finish_time n start }

(* free cells (shifts, negations) are folded into the consumer's operand
   steering, so a read through them happens at the consumer's start step:
   walking consumers before producers (reverse topological order) carries
   a free cell's last read on to its fanin *)
let last_read (n : Netlist.t) s =
  let cells = n.Netlist.cells in
  let last = Array.make (Array.length cells) (-1) in
  List.iter
    (fun (_, i) -> last.(i) <- Stdlib.max last.(i) s.latency)
    n.Netlist.outputs;
  for i = Array.length cells - 1 downto 0 do
    let cell = cells.(i) in
    let read_at =
      match class_of cell.Netlist.op with
      | Free -> last.(i)
      | Mult_unit | Add_unit -> s.start_step.(i)
    in
    List.iter
      (fun src -> last.(src) <- Stdlib.max last.(src) read_at)
      cell.Netlist.fanin
  done;
  last

let is_valid resources (n : Netlist.t) s =
  let cells = n.Netlist.cells in
  let deps_ok =
    Array.for_all
      (fun cell ->
        List.for_all
          (fun src ->
            s.start_step.(src) + duration cells.(src).Netlist.op
            <= s.start_step.(cell.Netlist.id))
          cell.Netlist.fanin)
      cells
  in
  let usage_ok =
    let ok = ref true in
    for t = 0 to s.latency do
      let used cls =
        Array.fold_left
          (fun acc cell ->
            let d = duration cell.Netlist.op in
            if
              class_of cell.Netlist.op = cls
              && s.start_step.(cell.Netlist.id) <= t
              && t < s.start_step.(cell.Netlist.id) + d
            then acc + 1
            else acc)
          0 cells
      in
      if used Mult_unit > resources.multipliers then ok := false;
      if used Add_unit > resources.adders then ok := false
    done;
    !ok
  in
  deps_ok && usage_ok
