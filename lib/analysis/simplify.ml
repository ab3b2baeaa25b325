(* Certificate-guarded netlist simplification.

   The pass consumes the per-cell constants of {!Absint.constants} and
   proposes local rewrites: constant folding, x+0 / x*1 / x*0 identities,
   0-x -> -x, multiply-by-constant strength reduction (general multiplier
   -> Cmult, Cmult 2^k -> Shl, Cmult -1 -> Negate) and dead-cell
   elimination.

   Nothing is trusted: every candidate netlist is certified against the
   reference polynomial system by {!Equiv} under the ring context of the
   netlist's width before it replaces the original.  A rewrite batch that
   fails certification is retried one rewrite at a time, so a single
   unsound proposal (an analysis bug) is isolated and rejected while the
   sound ones still land.  The pass therefore cannot change semantics:
   its worst case is a netlist identical to its input. *)

module Z = Polysynth_zint.Zint
module Netlist = Polysynth_hw.Netlist

type action =
  | Fold of Z.t  (** replace the cell by a constant *)
  | Forward of int  (** route the cell's users to another cell *)
  | Reop of Netlist.op * int list  (** change operator and fanin *)

type rewrite = { cell : int; action : action; reason : string }

let describe rw =
  let what =
    match rw.action with
    | Fold v -> Printf.sprintf "fold to constant %s" (Z.to_string v)
    | Forward j -> Printf.sprintf "forward to c%d" j
    | Reop (op, _) -> Printf.sprintf "rewrite to %s" (Netlist.op_to_string op)
  in
  Printf.sprintf "%s (%s)" what rw.reason

(* ---- proposing rewrites from facts -------------------------------------- *)

(* [Some k] iff [c = 2^k] with [c > 0] *)
let is_pow2 c =
  if Z.sign c <= 0 then None
  else
    let k = Z.val2 c in
    if Z.equal c (Z.pow2 k) then Some k else None

(* rewrites justified by the given per-cell facts; proposals only, nothing
   here is certified *)
let propose ~facts (n : Netlist.t) =
  let width = n.Netlist.width in
  let cst i = Domains.Const.as_const facts.(i) in
  let is_zero i = match cst i with Some c -> Z.is_zero c | None -> false in
  let rewrites = ref [] in
  let push cell action reason =
    rewrites := { cell; action; reason } :: !rewrites
  in
  (* multiply [cell] by the known constant [c] of one operand; [general]
     says the cell pays for a general multiplier today *)
  let strength cell ~general c operand =
    if Z.is_one c then push cell (Forward operand) "x * 1 = x"
    else if Z.equal c (Z.neg Z.one) then
      push cell (Reop (Netlist.Negate, [ operand ])) "x * -1 = -x"
    else
      match is_pow2 (Z.erem_pow2 c width) with
      | Some k when k > 0 && k < width ->
        push cell
          (Reop (Netlist.Shl k, [ operand ]))
          (Printf.sprintf "x * %s = x << %d" (Z.to_string c) k)
      | _ ->
        if general then
          push cell
            (Reop (Netlist.Cmult c, [ operand ]))
            "multiplier with a constant operand"
  in
  Array.iter
    (fun (c : Netlist.cell) ->
      let arg k = List.nth c.fanin k in
      match c.op with
      | Netlist.Input _ | Netlist.Constant _ -> ()
      | _ -> (
        match cst c.id with
        | Some v ->
          push c.id (Fold v)
            (Printf.sprintf "cell always computes %s" (Z.to_string v))
        | None -> (
          match c.op with
          | Netlist.Add2 ->
            if is_zero (arg 0) then push c.id (Forward (arg 1)) "0 + x = x"
            else if is_zero (arg 1) then push c.id (Forward (arg 0)) "x + 0 = x"
          | Netlist.Sub2 ->
            if is_zero (arg 1) then push c.id (Forward (arg 0)) "x - 0 = x"
            else if is_zero (arg 0) then
              push c.id (Reop (Netlist.Negate, [ arg 1 ])) "0 - x = -x"
          | Netlist.Mult2 -> (
            match (cst (arg 0), cst (arg 1)) with
            | Some c0, _ -> strength c.id ~general:true c0 (arg 1)
            | _, Some c1 -> strength c.id ~general:true c1 (arg 0)
            | None, None -> ())
          | Netlist.Cmult k -> strength c.id ~general:false k (arg 0)
          | Netlist.Shl 0 -> push c.id (Forward (arg 0)) "x << 0 = x"
          | Netlist.Input _ | Netlist.Constant _ | Netlist.Negate
          | Netlist.Shl _ ->
            ())))
    n.Netlist.cells;
  List.rev !rewrites

(* ---- unchecked application ---------------------------------------------- *)

(* Id-stable: every cell keeps its id (forwarded cells simply lose their
   users), so a rewrite list computed against the original netlist stays
   meaningful across repeated partial applications.  Dead cells are
   removed by the separate {!prune}. *)
let apply (n : Netlist.t) rewrites =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun rw ->
      if not (Hashtbl.mem tbl rw.cell) then Hashtbl.add tbl rw.cell rw.action)
    rewrites;
  let num = Array.length n.Netlist.cells in
  let rec root seen i =
    if i < 0 || i >= num || List.mem i seen then i
    else
      match Hashtbl.find_opt tbl i with
      | Some (Forward j) -> root (i :: seen) j
      | _ -> i
  in
  let root i = root [] i in
  let cells =
    Array.map
      (fun (c : Netlist.cell) ->
        match Hashtbl.find_opt tbl c.id with
        | Some (Fold v) ->
          {
            c with
            Netlist.op = Netlist.Constant (Z.erem_pow2 v n.Netlist.width);
            fanin = [];
          }
        | Some (Reop (op, fanin)) ->
          { c with Netlist.op; fanin = List.map root fanin }
        | Some (Forward _) | None ->
          { c with Netlist.fanin = List.map root c.fanin })
      n.Netlist.cells
  in
  {
    n with
    Netlist.cells;
    outputs = List.map (fun (nm, i) -> (nm, root i)) n.Netlist.outputs;
  }

(* drop cells unreachable from the outputs and renumber *)
let prune (n : Netlist.t) =
  let live = Netlist.live n in
  let id_map = Array.make (Array.length live) (-1) in
  let cells = ref [] in
  let next = ref 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if live.(c.id) then begin
        id_map.(c.id) <- !next;
        cells :=
          {
            c with
            Netlist.id = !next;
            fanin = List.map (fun j -> id_map.(j)) c.fanin;
          }
          :: !cells;
        incr next
      end)
    n.Netlist.cells;
  {
    n with
    Netlist.cells = Array.of_list (List.rev !cells);
    outputs = List.map (fun (nm, i) -> (nm, id_map.(i))) n.Netlist.outputs;
  }

(* ---- the pass ----------------------------------------------------------- *)

type stats = {
  proposed : int;
  applied : int;
  rejected : int;
  certificates : int;  (** Equiv runs spent guarding the pass *)
  cells_before : int;
  cells_after : int;
}

type outcome = {
  netlist : Netlist.t;
  applied : rewrite list;
  rejected : (rewrite * Equiv.cert) list;
  stats : stats;
}

let cells_eliminated o = o.stats.cells_before - o.stats.cells_after

let run ?facts ~system (n : Netlist.t) =
  (* the reference polynomials in netlist-output order *)
  let polys =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name system with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Simplify.run: the system does not name output %s"
               name))
      n.Netlist.outputs
  in
  let facts =
    match facts with Some f -> f | None -> Absint.constants n
  in
  let rewrites = propose ~facts n in
  let cells_before = Netlist.num_cells n in
  let certs = ref 0 in
  (* the pruned netlist with [acc] applied, if it certifies *)
  let attempt acc =
    let cand = prune (apply n acc) in
    incr certs;
    match Equiv.certify_netlist polys cand with
    | Equiv.Verified -> Ok cand
    | c -> Error c
  in
  (* whole batch first; on failure, re-grow one rewrite at a time so an
     unsound proposal is isolated while sound ones still land.  The
     certified netlist is the last candidate that verified *)
  let applied, rejected, certified =
    if rewrites = [] then ([], [], None)
    else
      match attempt rewrites with
      | Ok cand -> (rewrites, [], Some cand)
      | Error _ ->
        let acc, rejected, certified =
          List.fold_left
            (fun (acc, rejected, certified) rw ->
              match attempt (acc @ [ rw ]) with
              | Ok cand -> (acc @ [ rw ], rejected, Some cand)
              | Error c -> (acc, (rw, c) :: rejected, certified))
            ([], [], None) rewrites
        in
        (acc, List.rev rejected, certified)
  in
  let final =
    match certified with
    | Some cand -> cand
    | None ->
      (* no rewrite applied: certify the pruned netlist when pruning
         removed dead cells; the identity needs no certificate *)
      if Netlist.num_cells (prune (apply n [])) = cells_before then n
      else Result.value (attempt []) ~default:n
  in
  {
    netlist = final;
    applied;
    rejected;
    stats =
      {
        proposed = List.length rewrites;
        applied = List.length applied;
        rejected = List.length rejected;
        certificates = !certs;
        cells_before;
        cells_after = Netlist.num_cells final;
      };
  }

(* ---- diagnostics -------------------------------------------------------- *)

let diags_of_outcome o =
  let take l = List.filteri (fun i _ -> i < 20) l in
  let applied =
    List.map
      (fun rw -> Diag.info ~code:"simplify.rewrite" (Diag.Cell rw.cell) (describe rw))
      (take o.applied)
  in
  let rejected =
    List.map
      (fun (rw, cert) ->
        match cert with
        | Equiv.Refuted _ ->
          (* the certificate caught an unsound proposal: an analysis bug,
             contained but worth failing loudly over *)
          Diag.error ~code:"simplify.unsound" (Diag.Cell rw.cell)
            (Printf.sprintf "rewrite refuted by certificate: %s" (describe rw))
        | Equiv.Unknown why ->
          Diag.info ~code:"simplify.uncertified" (Diag.Cell rw.cell)
            (Printf.sprintf "rewrite not certified (%s): %s" why (describe rw))
        | Equiv.Verified ->
          Diag.info ~code:"simplify.rewrite" (Diag.Cell rw.cell) (describe rw))
      (take o.rejected)
  in
  let summary =
    let eliminated = cells_eliminated o in
    if eliminated > 0 || o.applied <> [] then
      [
        Diag.info ~code:"simplify.summary" Diag.Program
          (Printf.sprintf
             "%d rewrite(s) applied, %d cell(s) eliminated (%d -> %d)"
             (List.length o.applied) eliminated o.stats.cells_before
             o.stats.cells_after);
      ]
    else []
  in
  summary @ applied @ rejected
