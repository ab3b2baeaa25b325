module Z = Polysynth_zint.Zint
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Netlist = Polysynth_hw.Netlist
module Cost = Polysynth_hw.Cost
module Power = Polysynth_hw.Power

type objective = Min_area | Min_delay | Min_power | Min_ops

type options = {
  width : int;
  model : Cost.model;
  objective : objective;
  exhaustive_limit : int;
  budget : (unit -> bool) option;
}

let default_options ~width =
  {
    width;
    model = Cost.default;
    objective = Min_area;
    exhaustive_limit = 4096;
    budget = None;
  }

type selection = {
  prog : Prog.t;
  key : float array;
  labels : string list;
  netlist : Netlist.t;
  cost : Cost.report;
  counts : Dag.counts;
  combinations_evaluated : int;
}

let prog_of_choice (r : Represent.t) choice =
  let outputs =
    Prog.name_outputs
      (List.map (fun (rep : Represent.rep) -> rep.Represent.expr) choice)
  in
  let used =
    List.concat_map (fun (_, e) -> Expr.vars e) outputs
    |> List.sort_uniq String.compare
  in
  let bindings =
    List.filter (fun (n, _) -> List.mem n used) (Blocktab.bindings r.Represent.table)
  in
  { Prog.bindings; outputs }

let choice_of reps idx =
  List.init (Array.length reps) (fun i -> reps.(i).(idx.(i)))

(* one DAG serves both the netlist and the operator counts *)
let measure options prog =
  let dag, roots = Prog.to_dag prog in
  let netlist = Netlist.of_dag ~width:options.width dag ~outputs:roots in
  ( netlist,
    Cost.of_netlist ~model:options.model netlist,
    Dag.counts dag ~roots:(List.map snd roots) )

(* lexicographic objective key; [power] is only called under Min_power *)
let key objective ~area ~delay ~ops ~power =
  match objective with
  | Min_area -> [| area; delay; ops |]
  | Min_delay -> [| delay; area; ops |]
  | Min_power -> [| power (); area; ops |]
  | Min_ops -> [| ops; area; delay |]

(* the scorer's [power] outside Min_power, which [key] never calls *)
let no_power () = invalid_arg "Search: no power estimate outside Min_power"

(* transitions simulated per power estimate, by [score_full] and the
   scorer alike *)
let power_samples = 16

let score_full options prog =
  let ((netlist, cost, counts) as measured) = measure options prog in
  let key =
    key options.objective
      ~area:(float_of_int cost.Cost.area)
      ~delay:cost.Cost.delay
      ~ops:(float_of_int (Dag.total_ops counts))
      ~power:(fun () ->
        (Power.estimate ~samples:power_samples netlist).Power.total)
  in
  (key, measured)

let score options prog = fst (score_full options prog)

(* Every representation of every polynomial, and every block binding, is
   interned once into one DAG; a combination is then costed by walking only
   the nodes live from its roots.  The walk reproduces [Netlist.of_dag],
   [Cost.of_netlist], [Dag.counts] and [Power.estimate]: a live node is the
   cell [Netlist.lower_node] makes of it, priced by [Cost.cell_area] and
   [Cost.cell_delay], so the constant of a one-constant multiplication
   folds into the Cmult.  The walk follows cell fanins only,
   so a constant that feeds nothing but Cmults is never visited, just as
   [Netlist.of_dag] drops it.  Area, operator counts and power's
   toggles x area are integer sums and delay is a max over arrivals, so the
   visiting order cannot change a key. *)
let scorer options (r : Represent.t) =
  let outputs =
    Array.to_list r.Represent.reps
    |> List.concat_map
         (List.map (fun (rep : Represent.rep) -> ("", rep.Represent.expr)))
  in
  let dag, flat =
    Prog.to_dag { Prog.bindings = Blocktab.bindings r.Represent.table; outputs }
  in
  let flat_ids = List.map snd flat in
  let roots =
    let flat =
      Array.of_list (List.map (fun (id : Dag.id) -> (id :> int)) flat_ids)
    in
    let next = ref 0 in
    Array.map
      (fun reps ->
        let first = !next in
        next := first + List.length reps;
        Array.sub flat first (List.length reps))
      r.Represent.reps
  in
  let m = options.width and model = options.model in
  let size = Dag.num_nodes dag in
  let live_nodes = Dag.live dag ~roots:flat_ids in
  (* each node as a cell: fanins at 2i and 2i+1 (-1 when absent), area,
     delay, and 1 when it is an operator counted by [Dag.counts] *)
  let fanin = Array.make (2 * size) (-1) in
  let area = Array.make size 0 and delay = Array.make size 0.0 in
  let ops = Array.make size 0 in
  List.iter
    (fun (id : Dag.id) ->
      let i = (id :> int) in
      let op, args = Netlist.lower_node dag id in
      List.iteri (fun k (a : Dag.id) -> fanin.((2 * i) + k) <- (a :> int)) args;
      area.(i) <- Cost.cell_area model m op;
      delay.(i) <- Cost.cell_delay model m op;
      ops.(i) <-
        (match op with
         | Netlist.Input _ | Netlist.Constant _ | Netlist.Negate
         | Netlist.Shl _ ->
           0
         | Netlist.Add2 | Netlist.Sub2 | Netlist.Mult2 | Netlist.Cmult _ -> 1))
    live_nodes;
  (* scratch for one combination; a node belongs to the current one when
     its stamp equals [epoch], and [order] lists those nodes operands
     first *)
  let stamp = Array.make size 0 and epoch = ref 0 in
  let fanout = Array.make size 0 and arrival = Array.make size 0.0 in
  let order = Array.make size 0 and live = ref 0 in
  let rec visit i =
    if stamp.(i) <> !epoch then begin
      stamp.(i) <- !epoch;
      fanout.(i) <- 0;
      let a = fanin.(2 * i) and b = fanin.((2 * i) + 1) in
      if a >= 0 then begin
        visit a;
        fanout.(a) <- fanout.(a) + 1
      end;
      if b >= 0 then begin
        visit b;
        fanout.(b) <- fanout.(b) + 1
      end;
      order.(!live) <- i;
      incr live
    end
  in
  (* Min_power only: each live node's [Power.cell_area] and, per input
     list, its toggle counts.  The input list of a combination is the
     sorted names of the inputs it visits, which is [Netlist.inputs] of its
     own netlist; it decides which words [Power.toggles] draws for which
     input, so it keys the toggles.  The simulation runs a netlist with one
     cell per DAG node, each live node the cell [Netlist.lower_node] makes
     of it and every other a constant zero, so a simulation under one list
     evaluates every live node; a node reading an input outside the list
     is never visited under it, so that input reads as zero.  The other
     objectives build none of this. *)
  let power =
    match options.objective with
    | Min_area | Min_delay | Min_ops -> no_power
    | Min_power ->
      let power_area = Array.make size 0 in
      let cells =
        Array.init size (fun id ->
            { Netlist.id; op = Netlist.Constant Z.zero; fanin = [] })
      in
      List.iter
        (fun (id : Dag.id) ->
          let i = (id :> int) in
          let op, args = Netlist.lower_node dag id in
          power_area.(i) <- Power.cell_area ~width:m op;
          let fanin = List.map (fun (a : Dag.id) -> (a :> int)) args in
          cells.(i) <- { Netlist.id = i; op; fanin })
        live_nodes;
      let input_nodes =
        List.filter_map
          (fun (id : Dag.id) ->
            match cells.((id :> int)).Netlist.op with
            | Netlist.Input v -> Some (v, (id :> int))
            | _ -> None)
          live_nodes
        |> List.sort compare |> Array.of_list
      in
      let simulate =
        Power.toggles ~samples:power_samples
          { Netlist.cells; outputs = []; width = m }
      in
      let by_inputs = Hashtbl.create 4 in
      fun () ->
        let inputs =
          Array.fold_right
            (fun (v, i) acc -> if stamp.(i) = !epoch then v :: acc else acc)
            input_nodes []
        in
        let toggles =
          match Hashtbl.find_opt by_inputs inputs with
          | Some t -> t
          | None ->
            let t = simulate inputs in
            Hashtbl.add by_inputs inputs t;
            t
        in
        let switched = ref 0 and total_area = ref 0 in
        for j = 0 to !live - 1 do
          let i = order.(j) in
          switched := !switched + (toggles.(i) * power_area.(i));
          total_area := !total_area + power_area.(i)
        done;
        Power.total ~samples:power_samples ~switched:!switched
          ~area:!total_area
  in
  fun idx ->
    incr epoch;
    live := 0;
    Array.iteri (fun p k -> visit roots.(p).(k)) idx;
    let total_area = ref 0 and worst = ref 0.0 and total_ops = ref 0 in
    for j = 0 to !live - 1 do
      let i = order.(j) in
      let a = fanin.(2 * i) and b = fanin.((2 * i) + 1) in
      let fanin_arrival = if a >= 0 then Float.max 0.0 arrival.(a) else 0.0 in
      let fanin_arrival =
        if b >= 0 then Float.max fanin_arrival arrival.(b) else fanin_arrival
      in
      let load =
        model.Cost.fanout_delay *. float_of_int (Stdlib.max 0 (fanout.(i) - 1))
      in
      arrival.(i) <- fanin_arrival +. delay.(i) +. load;
      total_area := !total_area + area.(i);
      worst := Float.max !worst arrival.(i);
      total_ops := !total_ops + ops.(i)
    done;
    key options.objective
      ~area:(float_of_int !total_area)
      ~delay:!worst
      ~ops:(float_of_int !total_ops)
      ~power

exception Budget_exhausted

(* the most coordinate-descent passes a large system gets *)
let sweeps = 4

let select options (r : Represent.t) =
  let reps = Array.map Array.of_list r.Represent.reps in
  let n = Array.length reps in
  let key_of = scorer options r in
  let evaluated = ref 0 in
  (* the very first candidate is always evaluated, so budget exhaustion
     still leaves a complete (if unoptimized) selection to return *)
  let may_continue () =
    match options.budget with None -> true | Some ok -> ok ()
  in
  let idx = Array.make n 0 in
  let eval () =
    incr evaluated;
    key_of idx
  in
  let best_key = ref (eval ()) and best_idx = ref (Array.copy idx) in
  (* first-best: a later combination must be strictly better to win *)
  let try_current () =
    let key = eval () in
    let better = key < !best_key in
    if better then begin
      best_key := key;
      best_idx := Array.copy idx
    end;
    better
  in
  let total = Represent.num_combinations r in
  if n > 0 then begin
    if total <= options.exhaustive_limit then begin
      (* odometer over all combinations *)
      let rec advance pos =
        if pos < n then begin
          if idx.(pos) + 1 < Array.length reps.(pos) then begin
            idx.(pos) <- idx.(pos) + 1;
            true
          end
          else begin
            idx.(pos) <- 0;
            advance (pos + 1)
          end
        end
        else false
      in
      let keep_going = ref (advance 0) in
      while !keep_going do
        if not (may_continue ()) then keep_going := false
        else begin
          ignore (try_current ());
          keep_going := advance 0
        end
      done
    end
    else begin
      (* coordinate descent from the all-first choice: re-optimize one
         polynomial at a time against the sharing created by the others *)
      let improved = ref true in
      let sweep = ref 0 in
      (try
         while !improved && !sweep < sweeps do
           improved := false;
           incr sweep;
           for i = 0 to n - 1 do
             let best_k = ref idx.(i) in
             for k = 0 to Array.length reps.(i) - 1 do
               if k <> !best_k then begin
                 if not (may_continue ()) then raise_notrace Budget_exhausted;
                 idx.(i) <- k;
                 if try_current () then begin
                   best_k := k;
                   improved := true
                 end
               end
             done;
             (* [best] was last updated at idx.(i) = !best_k (or never for
                this position), so this restores the configuration it
                scored *)
             idx.(i) <- !best_k
           done
         done
       with Budget_exhausted -> ())
    end
  end;
  let choice = choice_of reps !best_idx in
  let prog = prog_of_choice r choice in
  let netlist, cost, counts = measure options prog in
  {
    prog;
    key = !best_key;
    labels = List.map (fun (rep : Represent.rep) -> rep.Represent.label) choice;
    netlist;
    cost;
    counts;
    combinations_evaluated = !evaluated;
  }
