type binding = {
  unit_of : (int * int) array;
  register_of : int array;
  num_multipliers : int;
  num_adders : int;
  num_registers : int;
  mux_inputs : int;
}

let class_code = function
  | Schedule.Free -> 0
  | Schedule.Mult_unit -> 1
  | Schedule.Add_unit -> 2

(* a value is alive from its finish step to its last read
   ([Schedule.last_read]): [(finish, last_use)], with [last_use.(i) = -1]
   for a value nothing reads *)
let lifetimes (n : Netlist.t) (s : Schedule.schedule) =
  let finish i =
    s.Schedule.start_step.(i) + Schedule.duration n.Netlist.cells.(i).Netlist.op
  in
  (finish, Schedule.last_read n s)

let bind (n : Netlist.t) (s : Schedule.schedule) =
  let cells = n.Netlist.cells in
  let num = Array.length cells in
  if Array.length s.Schedule.start_step <> num then
    invalid_arg "Bind.bind: schedule does not match the netlist";
  (* ---- functional units: greedy reuse in (start step, id) order ------- *)
  let unit_of = Array.make num (0, 0) in
  let assign cls =
    (* busy-until time per allocated unit of this class *)
    let units : int ref list ref = ref [] in
    let order =
      Array.to_list cells
      |> List.filter (fun c -> Schedule.class_of c.Netlist.op = cls)
      |> List.sort (fun a b ->
             let sa = s.Schedule.start_step.(a.Netlist.id)
             and sb = s.Schedule.start_step.(b.Netlist.id) in
             if sa <> sb then Stdlib.compare sa sb
             else Stdlib.compare a.Netlist.id b.Netlist.id)
    in
    List.iter
      (fun cell ->
        let t = s.Schedule.start_step.(cell.Netlist.id) in
        let fin = t + Schedule.duration cell.Netlist.op in
        let rec find i = function
          | [] ->
            units := !units @ [ ref fin ];
            i
          | u :: rest ->
            if !u <= t then begin
              u := fin;
              i
            end
            else find (i + 1) rest
        in
        let idx = find 0 !units in
        unit_of.(cell.Netlist.id) <- (class_code cls, idx))
      order;
    List.length !units
  in
  let num_multipliers = assign Schedule.Mult_unit in
  let num_adders = assign Schedule.Add_unit in
  (* ---- registers: left-edge on lifetimes ------------------------------- *)
  (* a unit value needs a register iff it is read after it finishes;
     wires, constants and inputs are always available *)
  let finish, last_use = lifetimes n s in
  let intervals =
    Array.to_list cells
    |> List.filter_map (fun c ->
           let i = c.Netlist.id in
           if Schedule.class_of c.Netlist.op <> Schedule.Free
              && last_use.(i) > finish i
           then Some (i, finish i, last_use.(i))
           else None)
    |> List.sort (fun (_, a, _) (_, b, _) -> Stdlib.compare a b)
  in
  let register_of = Array.make num (-1) in
  let registers : int ref list ref = ref [] in
  List.iter
    (fun (i, start, stop) ->
      let rec find k = function
        | [] ->
          registers := !registers @ [ ref stop ];
          k
        | r :: rest -> if !r < start then begin r := stop; k end else find (k + 1) rest
      in
      register_of.(i) <- find 0 !registers)
    intervals;
  (* ---- mux inputs: distinct sources per (unit, port) -------------------- *)
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun cell ->
      match Schedule.class_of cell.Netlist.op with
      | Schedule.Free -> ()
      | Schedule.Mult_unit | Schedule.Add_unit ->
        List.iteri
          (fun port src ->
            let key = (unit_of.(cell.Netlist.id), port) in
            let prev =
              match Hashtbl.find_opt tbl key with Some s -> s | None -> []
            in
            if not (List.mem src prev) then
              Hashtbl.replace tbl key (src :: prev))
          cell.Netlist.fanin)
    cells;
  let mux_inputs = Hashtbl.fold (fun _ srcs acc -> acc + List.length srcs) tbl 0 in
  {
    unit_of;
    register_of;
    num_multipliers;
    num_adders;
    num_registers = List.length !registers;
    mux_inputs;
  }

let is_consistent (n : Netlist.t) (s : Schedule.schedule) b =
  let cells = n.Netlist.cells in
  let num = Array.length cells in
  let finish, last_use = lifetimes n s in
  let ok = ref true in
  (* units: no temporal overlap on the same physical unit *)
  for i = 0 to num - 1 do
    for j = i + 1 to num - 1 do
      let ci = cells.(i) and cj = cells.(j) in
      if
        Schedule.class_of ci.Netlist.op <> Schedule.Free
        && b.unit_of.(i) = b.unit_of.(j)
        && Schedule.class_of ci.Netlist.op = Schedule.class_of cj.Netlist.op
        && s.Schedule.start_step.(i) < finish j
        && s.Schedule.start_step.(j) < finish i
      then ok := false
    done
  done;
  (* registers: a unit value read after it finishes has one, and values
     whose closed lifetimes [finish, last read] meet never share: a value
     written at the step another is last read clobbers it *)
  for i = 0 to num - 1 do
    if
      Schedule.class_of cells.(i).Netlist.op <> Schedule.Free
      && last_use.(i) > finish i
      && b.register_of.(i) < 0
    then ok := false;
    for j = i + 1 to num - 1 do
      if
        b.register_of.(i) >= 0
        && b.register_of.(i) = b.register_of.(j)
        && finish i <= last_use.(j)
        && finish j <= last_use.(i)
      then ok := false
    done
  done;
  !ok
