type binding = {
  resources : Schedule.resources;
  netlist : Netlist.t;
  schedule : Schedule.schedule;
  unit_of : (Schedule.unit_class * int) array;
  register_of : int array;
  num_multipliers : int;
  num_adders : int;
  num_registers : int;
  mux_inputs : int;
}

(* closed intervals [(id, first, last)] of the unit (non-[Free]) cells, in
   id order *)
let unit_intervals (n : Netlist.t) span =
  Array.to_list n.Netlist.cells
  |> List.filter_map (fun c ->
         match Schedule.class_of c.Netlist.op with
         | Schedule.Free -> None
         | Schedule.Mult_unit | Schedule.Add_unit ->
           let first, last = span c in
           Some (c.Netlist.id, first, last))

(* a unit is busy from its launch to the step before it finishes *)
let busy_spans n (s : Schedule.schedule) =
  unit_intervals n (fun c ->
      let t = s.Schedule.start_step.(c.Netlist.id) in
      (t, t + Schedule.duration c.Netlist.op - 1))

(* a result lands in its register at the end of its launch state
   (non-blocking write) and stays there to its last read, for at least
   the state after launch *)
let lifetimes n (s : Schedule.schedule) =
  let last = Schedule.last_read n s in
  unit_intervals n (fun c ->
      let i = c.Netlist.id in
      let first = s.Schedule.start_step.(i) + 1 in
      (first, Stdlib.max last.(i) first))

(* left-edge allocation: intervals taken by first step (ties in list
   order), each into the lowest-numbered resource whose last interval
   ended before it begins.  Returns the resource per id ([-1] for ids not
   listed) and the number of resources *)
let left_edge num intervals =
  let index = Array.make num (-1) in
  let place ends (id, first, last) =
    let rec go k = function
      | [] ->
        index.(id) <- k;
        [ last ]
      | e :: rest when e < first ->
        index.(id) <- k;
        last :: rest
      | e :: rest -> e :: go (k + 1) rest
    in
    go 0 ends
  in
  let ends =
    List.fold_left place []
      (List.stable_sort (fun (_, a, _) (_, b, _) -> Int.compare a b) intervals)
  in
  (index, List.length ends)

let bind resources (n : Netlist.t) =
  let s = Schedule.list_schedule resources n in
  let cells = n.Netlist.cells in
  let num = Array.length cells in
  let spans = busy_spans n s in
  let units cls =
    left_edge num
      (List.filter
         (fun (i, _, _) -> Schedule.class_of cells.(i).Netlist.op = cls)
         spans)
  in
  let mult_of, num_multipliers = units Schedule.Mult_unit in
  let add_of, num_adders = units Schedule.Add_unit in
  let unit_of =
    Array.map
      (fun c ->
        let i = c.Netlist.id in
        match Schedule.class_of c.Netlist.op with
        | Schedule.Free -> (Schedule.Free, 0)
        | Schedule.Mult_unit -> (Schedule.Mult_unit, mult_of.(i))
        | Schedule.Add_unit -> (Schedule.Add_unit, add_of.(i)))
      cells
  in
  let register_of, num_registers = left_edge num (lifetimes n s) in
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
    resources;
    netlist = n;
    schedule = s;
    unit_of;
    register_of;
    num_multipliers;
    num_adders;
    num_registers;
    mux_inputs;
  }

(* no two intervals on the same resource meet *)
let disjoint resource_of intervals =
  List.for_all
    (fun (i, fi, li) ->
      List.for_all
        (fun (j, fj, lj) ->
          i >= j || resource_of i <> resource_of j || li < fj || lj < fi)
        intervals)
    intervals

let is_consistent b =
  let n = b.netlist and s = b.schedule in
  let registers = lifetimes n s in
  disjoint (fun i -> b.unit_of.(i)) (busy_spans n s)
  && List.for_all (fun (i, _, _) -> b.register_of.(i) >= 0) registers
  && disjoint (fun i -> b.register_of.(i)) registers
