(* Generic forward abstract interpretation over the netlist DAG.

   The engine is a textbook worklist fixpoint: every cell starts at
   bottom, cells are seeded in topological order (the [cells] array of a
   well-formed netlist is topo-sorted, so one sweep normally reaches the
   fixpoint and the re-queued users confirm stability on their second
   visit), and a cell's users are re-queued whenever its fact grows.

   Termination: facts only move up the lattice ([join] with the previous
   fact) and every domain in {!Domains} has finite height over a fixed
   width — intervals are bounded by [[0, 2^w)], known-bits chains have
   height [w], congruences height [w+1] — so each cell's fact can strictly
   increase only finitely often and the worklist drains. *)

module Netlist = Polysynth_hw.Netlist

module Make (D : Domains.DOMAIN) = struct
  type fact = D.t

  let transfer ~width (facts : D.t array) (cell : Netlist.cell) =
    let arg k = facts.(List.nth cell.fanin k) in
    match cell.op with
    | Netlist.Input v -> D.input ~width v
    | Netlist.Constant c -> D.const ~width c
    | Netlist.Negate -> D.neg ~width (arg 0)
    | Netlist.Add2 -> D.add ~width (arg 0) (arg 1)
    | Netlist.Sub2 -> D.sub ~width (arg 0) (arg 1)
    | Netlist.Mult2 -> D.mul ~width (arg 0) (arg 1)
    | Netlist.Cmult c -> D.cmul ~width c (arg 0)
    | Netlist.Shl k -> D.shl ~width k (arg 0)

  let analyze (n : Netlist.t) =
    let width = n.Netlist.width in
    let num = Array.length n.Netlist.cells in
    let facts = Array.make num D.bottom in
    let users = Array.make num [] in
    Array.iter
      (fun (c : Netlist.cell) ->
        List.iter
          (fun s -> if s >= 0 && s < num then users.(s) <- c.id :: users.(s))
          c.fanin)
      n.Netlist.cells;
    let in_queue = Array.make num false in
    let q = Queue.create () in
    let push i =
      if not in_queue.(i) then begin
        in_queue.(i) <- true;
        Queue.add i q
      end
    in
    Array.iter (fun (c : Netlist.cell) -> push c.id) n.Netlist.cells;
    while not (Queue.is_empty q) do
      let i = Queue.take q in
      in_queue.(i) <- false;
      let cell = n.Netlist.cells.(i) in
      (* cells with out-of-range fanin (caught separately by Wellformed)
         just stay at bottom *)
      if List.for_all (fun s -> s >= 0 && s < num) cell.fanin then begin
        let nf =
          D.join ~width facts.(i) (transfer ~width facts cell)
        in
        if not (D.leq nf facts.(i)) then begin
          facts.(i) <- nf;
          List.iter push users.(i)
        end
      end
    done;
    facts

  let to_strings (n : Netlist.t) facts =
    Array.to_list
      (Array.mapi
         (fun i (c : Netlist.cell) ->
           Printf.sprintf "c%-4d %-18s %s" i (Netlist.op_to_string c.op)
             (D.to_string facts.(i)))
         n.Netlist.cells)
end

module Product_analysis = Make (Domains.Product)

let analyze_product = Product_analysis.analyze
