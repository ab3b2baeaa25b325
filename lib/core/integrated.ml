module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Extract = Polysynth_cse.Extract

(* Refine every flat body (building blocks and outputs of a cube/kernel
   extraction) with the algebraic toolbox: CCE grouping, content
   extraction, perfect powers and division by the linear blocks discovered
   across all the bodies.  Divisors are restricted to input variables (a
   divisor mentioning an extracted block could make block definitions
   cyclic), and the divisor names avoid every name the bodies use. *)
let refine_bodies ~blocks ~outputs =
  let all_bodies = List.map snd blocks @ List.map snd outputs in
  let is_generated_var v = List.mem_assoc v blocks in
  let table =
    Blocktab.create
      ~avoid:(List.map fst blocks @ List.concat_map Poly.vars all_bodies)
      ()
  in
  let divisors =
    Blocks.discover all_bodies
    |> List.filter (fun d ->
           List.for_all (fun v -> not (is_generated_var v)) (Poly.vars d))
  in
  let session = Algdiv.make_session table ~divisors in
  let refined_blocks =
    List.map (fun (n, b) -> (n, Algdiv.decompose session b)) blocks
  in
  let refined_outputs =
    List.map (fun (n, b) -> (n, Algdiv.decompose session b)) outputs
  in
  let used =
    List.concat_map (fun (_, e) -> Expr.vars e) (refined_blocks @ refined_outputs)
    |> List.sort_uniq String.compare
  in
  let divisor_bindings =
    List.filter (fun (n, _) -> List.mem n used) (Blocktab.bindings table)
  in
  { Prog.bindings = divisor_bindings @ refined_blocks; outputs = refined_outputs }

(* Variant 1 — CCE first: decompose every polynomial by common coefficient
   extraction, then run variable-only cube/kernel extraction over all the
   quotient blocks and residuals together so that blocks shared across
   polynomials are found. *)
let decompose_cce_first polys =
  let cce = List.map Cce.extract polys in
  let pieces =
    List.concat_map
      (fun r -> List.map snd r.Cce.groups @ [ r.Cce.residual ])
      cce
  in
  let extraction = Extract.run ~mode:Extract.Vars_only pieces in
  let refined =
    refine_bodies ~blocks:extraction.Extract.blocks
      ~outputs:extraction.Extract.output_bodies
  in
  let piece_exprs = List.map snd refined.Prog.outputs in
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> invalid_arg "Integrated.decompose_cce_first: piece mismatch"
      | x :: rest ->
        let first, remaining = take (n - 1) rest in
        (x :: first, remaining)
  in
  let outputs, leftover =
    List.fold_left
      (fun (acc, pieces_left) r ->
        let n = List.length r.Cce.groups + 1 in
        let own, rest = take n pieces_left in
        let block_exprs, residual_expr =
          match List.rev own with
          | res :: blocks_rev -> (List.rev blocks_rev, res)
          | [] -> assert false
        in
        let expr =
          Expr.add
            (List.map2
               (fun (g, _) be -> Expr.mul [ Expr.const g; be ])
               r.Cce.groups block_exprs
            @ [ residual_expr ])
        in
        (expr :: acc, rest))
      ([], piece_exprs) cce
  in
  assert (leftover = []);
  let outputs =
    List.mapi
      (fun i e -> (Printf.sprintf "P%d" (i + 1), e))
      (List.rev outputs)
  in
  { Prog.bindings = refined.Prog.bindings; outputs }

(* Variant 2 — cubes first: variable-only extraction across the original
   system, then algebraic refinement of every body. *)
let decompose_cubes_first polys =
  let extraction = Extract.run ~mode:Extract.Vars_only polys in
  refine_bodies ~blocks:extraction.Extract.blocks
    ~outputs:extraction.Extract.output_bodies

(* Variant 3 — refine the literal-mode extraction: run the kernel/co-kernel
   extraction exactly as the baseline does (coefficients as literals), then
   apply the algebraic refinement to every extracted body.  This is the
   paper's core argument in miniature: algebraic manipulation composes
   with, and strictly refines, the symbolic CSE of [13]. *)
let refine_literal_extraction ?strategy polys =
  let extraction = Extract.run ~mode:Extract.Coeff_literals ?strategy polys in
  refine_bodies ~blocks:extraction.Extract.blocks
    ~outputs:extraction.Extract.output_bodies

let variants =
  [
    ("integrated-cce-first", decompose_cce_first);
    ("integrated-cubes-first", decompose_cubes_first);
    ("integrated-refine", fun polys -> refine_literal_extraction polys);
    ( "integrated-kcm",
      refine_literal_extraction ~strategy:Extract.Kcm_rectangles );
  ]
