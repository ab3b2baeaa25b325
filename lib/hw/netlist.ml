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

(* ---- the word form -------------------------------------------------- *)

type modulus = Pow2 of int | Prime of int

(* the cell kinds of the word form: a [Shl] becomes a [Scale] by its
   power of two, reduced *)
type word_op = Read | Const | Neg | Add | Sub | Mul | Scale

type words = {
  modulus : modulus;
  word_op : word_op array;
  (* per cell: the input slot of a [Read], the reduced value of a
     [Const], the first operand otherwise *)
  first : int array;
  (* per cell: the second operand of [Add], [Sub], [Mul], the reduced
     factor of a [Scale] *)
  second : int array;
}

let compile modulus ~inputs n =
  let reduce z =
    match modulus with
    | Pow2 m -> Z.to_int_exn (Z.erem_pow2 z m)
    | Prime p -> Z.to_int_exn (snd (Z.ediv_rem z (Z.of_int p)))
  in
  (match modulus with
   | Pow2 m when m < 0 || m > 62 ->
     invalid_arg "Netlist.compile: 2^m with m outside [0, 62]"
   | Prime p when p < 2 || p >= 1 lsl 30 ->
     invalid_arg "Netlist.compile: prime outside [2, 2^30)"
   | Pow2 _ | Prime _ -> ());
  let size = Array.length n.cells in
  let word_op = Array.make size Const in
  let first = Array.make size 0 and second = Array.make size 0 in
  Array.iteri
    (fun i cell ->
      let arg k = List.nth cell.fanin k in
      let set op a b =
        word_op.(i) <- op;
        first.(i) <- a;
        second.(i) <- b
      in
      match cell.op with
      | Input v -> (
          match List.find_index (String.equal v) inputs with
          | Some slot -> set Read slot 0
          | None -> invalid_arg ("Netlist.compile: no slot for input " ^ v))
      | Constant c -> set Const (reduce c) 0
      | Negate -> set Neg (arg 0) 0
      | Add2 -> set Add (arg 0) (arg 1)
      | Sub2 -> set Sub (arg 0) (arg 1)
      | Mult2 -> set Mul (arg 0) (arg 1)
      | Cmult c -> set Scale (arg 0) (reduce c)
      | Shl k ->
        let factor =
          match modulus with
          | Pow2 m -> if k >= m then 0 else 1 lsl k
          | Prime _ -> reduce (Z.pow2 k)
        in
        set Scale (arg 0) factor)
    n.cells;
  { modulus; word_op; first; second }

(* Modulo 2^m, m <= 62: native ints wrap modulo 2^63, which 2^m divides,
   so one mask after each operation gives the residue, whatever the
   signs.  Modulo p < 2^30: operands lie in [0, p), so a sum or
   difference is one correction away and a product stays below 2^60. *)
let eval_words w inputs out =
  let op = w.word_op and a = w.first and b = w.second in
  match w.modulus with
  | Pow2 m ->
    let mask = (1 lsl m) - 1 in
    for i = 0 to Array.length op - 1 do
      out.(i) <-
        (match op.(i) with
         | Read -> inputs.(a.(i)) land mask
         | Const -> a.(i)
         | Neg -> (-out.(a.(i))) land mask
         | Add -> (out.(a.(i)) + out.(b.(i))) land mask
         | Sub -> (out.(a.(i)) - out.(b.(i))) land mask
         | Mul -> (out.(a.(i)) * out.(b.(i))) land mask
         | Scale -> (out.(a.(i)) * b.(i)) land mask)
    done
  | Prime p ->
    for i = 0 to Array.length op - 1 do
      out.(i) <-
        (match op.(i) with
         | Read ->
           let r = inputs.(a.(i)) mod p in
           if r < 0 then r + p else r
         | Const -> a.(i)
         | Neg ->
           let x = out.(a.(i)) in
           if x = 0 then 0 else p - x
         | Add ->
           let s = out.(a.(i)) + out.(b.(i)) in
           if s >= p then s - p else s
         | Sub ->
           let d = out.(a.(i)) - out.(b.(i)) in
           if d < 0 then d + p else d
         | Mul -> (out.(a.(i)) * out.(b.(i))) mod p
         | Scale -> (out.(a.(i)) * b.(i)) mod p)
    done

let draw_word rng ~width =
  (* two 30-bit limbs so widths above 30 still get full-range values *)
  let hi = Rng.next rng (1 lsl 30) in
  let lo = Rng.next rng (1 lsl 30) in
  let word = (hi lsl 30) + lo in
  if width >= 60 then word else word land ((1 lsl width) - 1)

let draw_words rng ~width inputs () =
  List.map (fun v -> (v, Z.of_int (draw_word rng ~width))) inputs

let draw_inputs rng n = draw_words rng ~width:n.width (inputs n)
