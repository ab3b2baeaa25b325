module Z = Polysynth_zint.Zint
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Netlist = Polysynth_hw.Netlist

(* ---- programs --------------------------------------------------------- *)

let lint_prog (prog : Prog.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* representative of every binding: itself, or the first earlier binding
     computing the same value once duplicates are rewritten through *)
  let repr = Hashtbl.create 16 in
  let canon e =
    Expr.subst
      (fun v ->
        match Hashtbl.find_opt repr v with
        | Some r when r <> v -> Some (Expr.var r)
        | _ -> None)
      e
  in
  let seen = ref [] in
  List.iter
    (fun (name, e) ->
      let c = canon e in
      (match List.find_opt (fun (_, c') -> Expr.equal c c') !seen with
       | Some (first, _) ->
         Hashtbl.replace repr name first;
         add
           (Diag.warning ~code:"lint.duplicate-binding" (Diag.Binding name)
              (Printf.sprintf "computes the same value as %s" first))
       | None ->
         Hashtbl.replace repr name name;
         seen := (name, c) :: !seen);
      match e with
      | Expr.Const _ | Expr.Var _ ->
        add
          (Diag.info ~code:"lint.trivial-binding" (Diag.Binding name)
             "right-hand side is a bare constant or variable")
      | _ -> ())
    prog.Prog.bindings;
  (* occurrence count of every bound name across later right-hand sides *)
  let bound = Hashtbl.create 16 in
  List.iter (fun (name, _) -> Hashtbl.replace bound name 0) prog.Prog.bindings;
  let rec count e =
    match (e : Expr.t) with
    | Expr.Const _ -> ()
    | Expr.Var v ->
      (match Hashtbl.find_opt bound v with
       | Some n -> Hashtbl.replace bound v (n + 1)
       | None -> ())
    | Expr.Neg e -> count e
    | Expr.Add es | Expr.Mul es -> List.iter count es
    | Expr.Pow (e, _) -> count e
  in
  List.iter (fun (_, e) -> count e) prog.Prog.bindings;
  List.iter (fun (_, e) -> count e) prog.Prog.outputs;
  List.iter
    (fun (name, _) ->
      if Hashtbl.find bound name = 1 then
        add
          (Diag.info ~code:"lint.single-use" (Diag.Binding name)
             "temporary is referenced exactly once; inlining it loses no \
              sharing"))
    prog.Prog.bindings;
  List.sort Diag.compare !diags

(* ---- netlists --------------------------------------------------------- *)

let lint_netlist (n : Netlist.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* duplicates up to representatives, as for programs *)
  let repr = Array.init (Netlist.num_cells n) (fun i -> i) in
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i (cell : Netlist.cell) ->
      let key =
        Netlist.op_to_string cell.Netlist.op
        :: List.map (fun src -> string_of_int repr.(src)) cell.Netlist.fanin
        |> String.concat ","
      in
      match Hashtbl.find_opt seen key with
      | Some first ->
        repr.(i) <- first;
        add
          (Diag.warning ~code:"lint.duplicate-cell" (Diag.Cell i)
             (Printf.sprintf "computes the same value as cell %d" first))
      | None -> Hashtbl.add seen key i)
    n.Netlist.cells;
  (* dead cells: not reachable backward from any output *)
  let live = Netlist.live n in
  Array.iteri
    (fun i (cell : Netlist.cell) ->
      if not live.(i) then
        add
          (Diag.warning ~code:"lint.dead-cell" (Diag.Cell i)
             (Printf.sprintf "%s cell feeds no output"
                (match cell.Netlist.op with
                 | Netlist.Input v -> "input " ^ v
                 | _ -> "computation")));
      match cell.Netlist.op with
      | Netlist.Cmult c when Z.is_zero c ->
        add
          (Diag.info ~code:"lint.trivial-cell" (Diag.Cell i)
             "multiplication by 0 is the constant 0")
      | Netlist.Cmult c when Z.is_one c ->
        add
          (Diag.info ~code:"lint.trivial-cell" (Diag.Cell i)
             "multiplication by 1 is a wire")
      | Netlist.Shl 0 ->
        add
          (Diag.info ~code:"lint.trivial-cell" (Diag.Cell i)
             "shift by 0 is a wire")
      | _ -> ())
    n.Netlist.cells;
  List.sort Diag.compare !diags
