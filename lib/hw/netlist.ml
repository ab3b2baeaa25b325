module Z = Polysynth_zint.Zint
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog
module Rng = Polysynth_zint.Xorshift

type op =
  | Input of string
  | Constant of Z.t
  | Negate
  | Add2
  | Sub2
  | Mult2
  | Cmult of Z.t
  | Shl of int

type cell = { id : int; op : op; fanin : int list }

type t = {
  cells : cell array;
  outputs : (string * int) list;
  width : int;
}

let lower_node dag i =
  let const_of j =
    match Dag.node dag j with Dag.Nconst c -> Some c | _ -> None
  in
  match Dag.node dag i with
  | Dag.Nconst c -> (Constant c, [])
  | Dag.Nvar v -> (Input v, [])
  | Dag.Nneg a -> (Negate, [ a ])
  | Dag.Nadd (a, b) -> (Add2, [ a; b ])
  | Dag.Nsub (a, b) -> (Sub2, [ a; b ])
  | Dag.Nmul (a, b) -> (
      (* a multiplication with exactly one constant operand becomes a
         Cmult cell that embeds the value; only a (degenerate) product of
         two constants keeps its operands *)
      match const_of a, const_of b with
      | Some ca, None -> (Cmult ca, [ b ])
      | None, Some cb -> (Cmult cb, [ a ])
      | Some _, Some _ | None, None -> (Mult2, [ a; b ]))

let of_dag ~width dag ~outputs =
  let roots = List.map snd outputs in
  let live = Dag.live dag ~roots in
  let lowered = List.map (lower_node dag) live in
  (* first pass: mark the nodes some cell reads and the outputs; a
     constant becomes a cell only when marked, so one feeding nothing but
     multiplications lives on only inside their Cmult cells *)
  let needed = Array.make (Dag.num_nodes dag) false in
  let need (i : Dag.id) = needed.((i :> int)) <- true in
  List.iter (fun (_, args) -> List.iter need args) lowered;
  List.iter need roots;
  (* second pass: one cell per live node, constants only where needed *)
  let cell_of = Array.make (Dag.num_nodes dag) (-1) in
  let resolve (i : Dag.id) = cell_of.((i :> int)) in
  let cells = ref [] and next = ref 0 in
  List.iter2
    (fun (i : Dag.id) (op, args) ->
      match op with
      | Constant _ when not needed.((i :> int)) -> ()
      | _ ->
        cells := { id = !next; op; fanin = List.map resolve args } :: !cells;
        cell_of.((i :> int)) <- !next;
        incr next)
    live lowered;
  {
    cells = Array.of_list (List.rev !cells);
    outputs = List.map (fun (n, r) -> (n, resolve r)) outputs;
    width;
  }

let of_prog ~width prog =
  let dag, roots = Prog.to_dag prog in
  of_dag ~width dag ~outputs:roots

let num_cells n = Array.length n.cells

let op_to_string = function
  | Input v -> Printf.sprintf "input %s" v
  | Constant c -> Z.to_string c
  | Negate -> "neg"
  | Add2 -> "add"
  | Sub2 -> "sub"
  | Mult2 -> "mul"
  | Cmult c -> Printf.sprintf "cmult %s" (Z.to_string c)
  | Shl k -> Printf.sprintf "shl %d" k

let inputs n =
  Array.to_list n.cells
  |> List.filter_map (fun c ->
         match c.op with Input v -> Some v | _ -> None)
  |> List.sort_uniq String.compare

let rec fresh_prefix names p =
  if List.exists (String.starts_with ~prefix:p) names then
    fresh_prefix names (p ^ "_")
  else p

let cell_value ~reduce op env arg =
  reduce
    (match op with
     | Input v -> env v
     | Constant c -> c
     | Negate -> Z.neg (arg 0)
     | Add2 -> Z.add (arg 0) (arg 1)
     | Sub2 -> Z.sub (arg 0) (arg 1)
     | Mult2 -> Z.mul (arg 0) (arg 1)
     | Cmult c -> Z.mul c (arg 0)
     | Shl k -> Z.mul (Z.pow2 k) (arg 0))

let interpret n init f =
  let out = Array.make (Array.length n.cells) init in
  Array.iter
    (fun cell ->
      out.(cell.id) <- f cell.op (fun k -> out.(List.nth cell.fanin k)))
    n.cells;
  out

let live n =
  let live = Array.make (Array.length n.cells) false in
  let mark i = live.(i) <- true in
  List.iter (fun (_, i) -> mark i) n.outputs;
  (* users follow their fanin, so one backward pass sees every user of a
     cell before the cell *)
  for i = Array.length n.cells - 1 downto 0 do
    if live.(i) then List.iter mark n.cells.(i).fanin
  done;
  live

let values n env =
  let reduce z = Z.erem_pow2 z n.width in
  interpret n Z.zero (fun op arg -> cell_value ~reduce op env arg)

let eval n env =
  let values = values n env in
  List.map (fun (name, id) -> (name, values.(id))) n.outputs

let draw_words rng ~width inputs () =
  List.map
    (fun v ->
      (* two limbs so widths above 30 still get full-range values *)
      let hi = Rng.next rng (1 lsl 30) and lo = Rng.next rng (1 lsl 30) in
      let word = Z.add (Z.mul (Z.of_int hi) (Z.pow2 30)) (Z.of_int lo) in
      (v, Z.erem_pow2 word width))
    inputs

let draw_inputs rng n = draw_words rng ~width:n.width (inputs n)
