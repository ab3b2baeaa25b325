type staging = {
  stage_of : int array;
  num_stages : int;
  pipeline_registers : int;
  achieved_period : float;
}

let cut ?(model = Cost.default) ~target_period (n : Netlist.t) =
  if target_period <= 0.0 then invalid_arg "Stage.cut: non-positive period";
  let cells = n.Netlist.cells in
  let num = Array.length cells in
  let stage_of = Array.make num 0 in
  let arrival = Array.make num 0.0 in
  let w = n.Netlist.width in
  Array.iter
    (fun cell ->
      let i = cell.Netlist.id in
      let d = Cost.cell_delay model w cell.Netlist.op in
      (* candidate stage: the latest fanin stage *)
      let s0 =
        List.fold_left
          (fun acc src -> Stdlib.max acc stage_of.(src))
          0 cell.Netlist.fanin
      in
      (* arrival within stage s0: inputs from earlier stages arrive at 0
         (registered), same-stage inputs at their arrival time *)
      let input_arrival s =
        List.fold_left
          (fun acc src ->
            if stage_of.(src) < s then acc else Stdlib.max acc arrival.(src))
          0.0 cell.Netlist.fanin
      in
      let a0 = input_arrival s0 +. d in
      if a0 <= target_period || input_arrival s0 = 0.0 then begin
        (* keep it in s0; a lone slow operator stays even when it blows
           the period (it cannot be split) *)
        stage_of.(i) <- s0;
        arrival.(i) <- a0
      end
      else begin
        stage_of.(i) <- s0 + 1;
        arrival.(i) <- d
      end)
    cells;
  let num_stages =
    1 + Array.fold_left Stdlib.max 0 stage_of
  in
  (* registers: for each value, the number of boundaries it crosses up to
     its furthest consumer *)
  let furthest = Array.make num (-1) in
  Array.iter
    (fun cell ->
      List.iter
        (fun src ->
          furthest.(src) <- Stdlib.max furthest.(src) stage_of.(cell.Netlist.id))
        cell.Netlist.fanin)
    cells;
  List.iter
    (fun (_, i) -> furthest.(i) <- Stdlib.max furthest.(i) (num_stages - 1))
    n.Netlist.outputs;
  let pipeline_registers = ref 0 in
  Array.iter
    (fun cell ->
      let i = cell.Netlist.id in
      if furthest.(i) > stage_of.(i) then
        pipeline_registers := !pipeline_registers + (furthest.(i) - stage_of.(i)))
    cells;
  let achieved_period = Array.fold_left Stdlib.max 0.0 arrival in
  { stage_of; num_stages; pipeline_registers = !pipeline_registers; achieved_period }
