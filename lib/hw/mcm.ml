module Z = Polysynth_zint.Zint

let csd_digits c =
  if Z.sign c <= 0 then invalid_arg "Mcm.csd_digits: non-positive constant";
  (* non-adjacent form, least-significant first *)
  let rec go n shift acc =
    if Z.is_zero n then List.rev acc
    else if Z.is_even n then go (Z.div n Z.two) (shift + 1) acc
    else begin
      let m4 = Z.to_int_exn (Z.erem_pow2 n 2) in
      let d = if m4 = 1 then 1 else -1 in
      let n' = Z.div (Z.sub n (Z.of_int d)) Z.two in
      go n' (shift + 1) ((d, shift) :: acc)
    end
  in
  go c 0 []

(* A digit of a partial decomposition: sign * 2^shift * term, where term 0
   is the group operand itself and term i>0 is the i-th shared partial. *)
type digit = { sign : int; shift : int; term : int }

(* a shared partial term: base1 + pattern_sign * 2^delta * base2 *)
type partial = { t1 : int; t2 : int; psign : int; delta : int }

(* normalized two-digit pattern *)
let pattern_of d1 d2 =
  let lo, hi = if d1.shift <= d2.shift then (d1, d2) else (d2, d1) in
  { t1 = lo.term; t2 = hi.term; psign = lo.sign * hi.sign;
    delta = hi.shift - lo.shift }

module PatMap = Map.Make (struct
  type t = partial

  let compare = Stdlib.compare
end)

(* Hartley-style extraction: repeatedly materialize the most frequent
   two-digit pattern across the group's digit strings. *)
let share_group digit_lists =
  let partials = ref [] in
  let num_partials = ref 0 in
  let lists = ref digit_lists in
  let changed = ref true in
  while !changed do
    changed := false;
    (* count each pattern's (non-overlapping, greedy) occurrences *)
    let counts = ref PatMap.empty in
    List.iter
      (fun digits ->
        let arr = Array.of_list digits in
        let n = Array.length arr in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let p = pattern_of arr.(i) arr.(j) in
            counts :=
              PatMap.update p
                (function None -> Some 1 | Some k -> Some (k + 1))
                !counts
          done
        done)
      !lists;
    let best =
      PatMap.fold
        (fun p k best ->
          match best with
          | Some (_, kb) when kb >= k -> best
          | _ when k >= 2 -> Some (p, k)
          | other -> other)
        !counts None
    in
    match best with
    | None -> ()
    | Some (p, _) ->
      incr num_partials;
      let pid = !num_partials in
      partials := !partials @ [ p ];
      (* replace non-overlapping occurrences in every digit string *)
      let replace digits =
        let arr = Array.of_list digits in
        let used = Array.make (Array.length arr) false in
        let out = ref [] in
        let n = Array.length arr in
        for i = 0 to n - 1 do
          if not used.(i) then begin
            let found = ref false in
            for j = i + 1 to n - 1 do
              if (not !found) && not used.(j) then
                if pattern_of arr.(i) arr.(j) = p then begin
                  found := true;
                  used.(i) <- true;
                  used.(j) <- true;
                  let lo =
                    if arr.(i).shift <= arr.(j).shift then arr.(i) else arr.(j)
                  in
                  (* the pair equals lo.sign * 2^lo.shift * P *)
                  out := { sign = lo.sign; shift = lo.shift; term = pid } :: !out
                end
            done;
            if not !found && not used.(i) then begin
              used.(i) <- true;
              out := arr.(i) :: !out
            end
          end
        done;
        List.rev !out
      in
      lists := List.map replace !lists;
      changed := true
  done;
  (!partials, !lists)

(* ---- netlist rewriting ------------------------------------------------------ *)

type builder = {
  mutable cells : Netlist.cell list;  (* reversed *)
  mutable next : int;
}

let emit b op fanin =
  let id = b.next in
  b.next <- id + 1;
  b.cells <- { Netlist.id; op; fanin } :: b.cells;
  id

let emit_shifted b base shift =
  if shift = 0 then base else emit b (Netlist.Shl shift) [ base ]

(* value of a digit string over resolved term ids *)
let emit_digit_sum b term_ids digits =
  match digits with
  | [] -> emit b (Netlist.Constant Z.zero) []
  | _ ->
    let pos, neg = List.partition (fun d -> d.sign > 0) digits in
    let sum_side side =
      match side with
      | [] -> None
      | first :: rest ->
        let start = emit_shifted b term_ids.(first.term) first.shift in
        Some
          (List.fold_left
             (fun acc d ->
               emit b Netlist.Add2
                 [ acc; emit_shifted b term_ids.(d.term) d.shift ])
             start rest)
    in
    (match sum_side pos, sum_side neg with
     | Some p, Some n -> emit b Netlist.Sub2 [ p; n ]
     | Some p, None -> p
     | None, Some n -> emit b Netlist.Negate [ n ]
     | None, None -> assert false)

let optimize (n : Netlist.t) =
  (* group the constants of the Cmult cells by operand, and note each
     cell's operand and position in its group *)
  let groups = Hashtbl.create 8 and member_of = Hashtbl.create 8 in
  Array.iter
    (fun cell ->
      match cell.Netlist.op with
      | Netlist.Cmult c when Z.sign c > 0 && not (Z.is_one c) ->
        let operand = List.hd cell.Netlist.fanin in
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups operand) in
        Hashtbl.replace member_of cell.Netlist.id (operand, List.length prev);
        Hashtbl.replace groups operand (prev @ [ c ])
      | _ -> ())
    n.Netlist.cells;
  (* plan sharing per group *)
  let plans = Hashtbl.create 8 in
  Hashtbl.iter
    (fun operand constants ->
      let digit c =
        List.map
          (fun (s, k) -> { sign = s; shift = k; term = 0 })
          (csd_digits c)
      in
      Hashtbl.replace plans operand (share_group (List.map digit constants)))
    groups;
  let b = { cells = []; next = 0 } in
  let id_map = Hashtbl.create 64 in
  let resolve i = Hashtbl.find id_map i in
  let emitted_groups = Hashtbl.create 8 in
  Array.iter
    (fun cell ->
      let open Netlist in
      match Hashtbl.find_opt member_of cell.id with
      | Some (operand, index) ->
        let partials, finals = Hashtbl.find plans operand in
        (* materialize the shared partial terms once per group *)
        let term_ids =
          match Hashtbl.find_opt emitted_groups operand with
          | Some t -> t
          | None ->
            let term_ids = Array.make (List.length partials + 1) 0 in
            term_ids.(0) <- resolve operand;
            List.iteri
              (fun i p ->
                let base1 = term_ids.(p.t1) in
                let base2 = emit_shifted b term_ids.(p.t2) p.delta in
                let id =
                  if p.psign > 0 then emit b Add2 [ base1; base2 ]
                  else emit b Sub2 [ base1; base2 ]
                in
                term_ids.(i + 1) <- id)
              partials;
            Hashtbl.replace emitted_groups operand term_ids;
            term_ids
        in
        let digits = List.nth finals index in
        Hashtbl.replace id_map cell.id (emit_digit_sum b term_ids digits)
      | None ->
        Hashtbl.replace id_map cell.id
          (emit b cell.op (List.map resolve cell.fanin)))
    n.Netlist.cells;
  {
    Netlist.cells = Array.of_list (List.rev b.cells);
    outputs = List.map (fun (name, i) -> (name, resolve i)) n.Netlist.outputs;
    width = n.Netlist.width;
  }
