(* Traced replay of one engine request, from the benchmark's own files.

   [request] makes the calls that Engine.compare_methods and
   Engine.run Proposed make for a request -- the same public layer
   functions, in the same order, under the same configuration -- each
   inside a flow span.  Its memo mirrors the engine's representation store
   (same key, emptied at the same points), so a request the engine serves
   from its store is served from the memo here too, and the replay's
   choice can be checked against the engine's.

   [probes] then re-runs single layers inside probe spans, as siblings of
   the flow spans: the representation builders on a fresh block table and
   fresh division sessions, kernelling and extraction (only when the
   request built its store, and from empty kernel and flat-cost memos),
   and the lowering, costing and power estimate of the selected program. *)

module Engine = Polysynth_core.Engine
module Represent = Polysynth_core.Represent
module Search = Polysynth_core.Search
module Integrated = Polysynth_core.Integrated
module Baselines = Polysynth_core.Baselines
module Blocks = Polysynth_core.Blocks
module Blocktab = Polysynth_core.Blocktab
module Algdiv = Polysynth_core.Algdiv
module Horner = Polysynth_core.Horner
module Cce = Polysynth_core.Cce
module Canonical_rep = Polysynth_core.Canonical_rep
module Poly = Polysynth_poly.Poly
module Prog = Polysynth_expr.Prog
module Canonical = Polysynth_finite_ring.Canonical
module Squarefree = Polysynth_factor.Squarefree
module Factorize = Polysynth_factor.Factorize
module Ted = Polysynth_ted.Ted
module Buchberger = Polysynth_groebner.Buchberger
module Extract = Polysynth_cse.Extract
module Kernel = Polysynth_cse.Kernel
module Netlist = Polysynth_hw.Netlist
module Cost = Polysynth_hw.Cost
module Power = Polysynth_hw.Power
module Equiv = Polysynth_analysis.Equiv
module Absint = Polysynth_analysis.Absint
module Domains = Polysynth_analysis.Domains
module Simplify = Polysynth_analysis.Simplify

type memo = (string, Represent.t * (string * Prog.t) list) Hashtbl.t

let create () : memo = Hashtbl.create 16
let clear (memo : memo) = Hashtbl.reset memo

(* The engine's store key: the printed system and the ring signature. *)
let key ~ctx polys =
  let b = Buffer.create 128 in
  List.iter
    (fun p ->
      Buffer.add_string b (Poly.to_string p);
      Buffer.add_char b ';')
    polys;
  (match ctx with
   | None -> Buffer.add_string b "|Z"
   | Some ctx ->
     Buffer.add_string b (Printf.sprintf "|m=%d" (Canonical.out_width ctx));
     List.concat_map Poly.vars polys
     |> List.sort_uniq String.compare
     |> List.iter (fun v ->
            Buffer.add_string b
              (Printf.sprintf ",%s:%d" v (Canonical.var_width ctx v))));
  Buffer.contents b

type outcome = {
  labels : string list;  (** Proposed's choice *)
  area : int;
  prog : Prog.t;
  built : bool;  (** the store was built, not served from the memo *)
  verified : bool;  (** every certificate the replay computed *)
  reps : int;
  combinations : int;
  certify_calls : int;
  cells_eliminated : int;
}

let variants =
  [
    ( "integrated-cce-first",
      "integrated.cce_first",
      Integrated.decompose_cce_first );
    ( "integrated-cubes-first",
      "integrated.cubes_first",
      Integrated.decompose_cubes_first );
    ( "integrated-refine",
      "integrated.refine",
      fun polys -> Integrated.refine_literal_extraction polys );
    ( "integrated-kcm",
      "integrated.kcm",
      fun polys ->
        Integrated.refine_literal_extraction ~strategy:Extract.Kcm_rectangles
          polys );
  ]

(* The counts and cost the engine computes for every report. *)
let cost (config : Engine.Config.t) prog =
  ignore (Prog.counts prog);
  Cost.of_prog ~model:config.model ~width:config.width prog

let from_store (store : Represent.t) label =
  let pick reps =
    List.find_opt (fun (r : Represent.rep) -> String.equal r.label label) reps
  in
  let chosen = Array.map pick store.reps in
  if Array.for_all Option.is_some chosen then
    Some
      (Prog.of_exprs
         (Array.to_list chosen
         |> List.map (fun o -> (Option.get o).Represent.expr)))
  else None

(* Certification, then -- with simplify on -- the product analysis of the
   lowered program and the guarded simplify pass: the engine's last steps
   for every method.  Lowering is counted with the analysis it feeds. *)
let finish (config : Engine.Config.t) polys prog =
  let verified =
    Span.flow "equiv.certify" (fun () ->
        (not config.certify)
        ||
        match Equiv.certify ?ctx:config.ctx polys prog with
        | Equiv.Verified -> true
        | Equiv.Refuted _ | Equiv.Unknown _ -> false)
  in
  let width = config.width in
  let analyzed =
    Span.flow "absint.analyze" (fun () ->
        if not config.simplify then None
        else begin
          let n = Netlist.of_prog ~width prog in
          let facts = Absint.analyze_product n in
          ignore
            (Array.fold_left
               (fun acc f ->
                 if Domains.Product.leq (Domains.Product.top ~width) f then acc
                 else acc + 1)
               0 facts);
          Some (n, facts)
        end)
  in
  let cells =
    Span.flow "simplify.run" (fun () ->
        match analyzed with
        | None -> 0
        | Some (n, facts) ->
          let system =
            List.mapi (fun i p -> (Printf.sprintf "P%d" (i + 1), p)) polys
          in
          Simplify.cells_eliminated (Simplify.run ~system ~facts n))
  in
  (verified, cells)

let request memo (r : Workload.request) =
  let config = r.config and polys = r.polys in
  let options = Engine.Config.search_options config in
  let k, cached, store =
    Span.flow "represent.build" (fun () ->
        let k = key ~ctx:config.ctx polys in
        let cached = if config.cache then Hashtbl.find_opt memo k else None in
        let store =
          match cached with
          | Some (store, _) -> store
          | None ->
            Represent.build ?ctx:config.ctx ?max_blocks:config.max_blocks polys
        in
        (k, cached, store))
  in
  let sel = Span.flow "search.select" (fun () -> Search.select options store) in
  let built_variants =
    List.map
      (fun (label, span, build) ->
        ( label,
          Span.flow span (fun () ->
              match cached with
              | Some (_, vs) -> List.assoc label vs
              | None -> build polys) ))
      variants
  in
  if config.cache && Option.is_none cached then
    Hashtbl.replace memo k (store, built_variants);
  (* the first-best competition of the search result and the variants *)
  let _, labels, prog, area =
    Span.flow "search.score" (fun () ->
        List.fold_left
          (fun ((best, _, _, _) as incumbent) (label, prog) ->
            let area = (cost config prog).Cost.area in
            let score = Search.score options prog in
            if score < best then (score, [ label ], prog, area) else incumbent)
          ( Search.score options sel.Search.prog,
            sel.Search.labels,
            sel.Search.prog,
            sel.Search.cost.Cost.area )
          built_variants)
  in
  let programs =
    match r.kind with
    | Workload.Run -> [ prog ]
    | Workload.Compare ->
      let baseline span label fallback =
        Span.flow span (fun () ->
            let served = if config.cache then from_store store label else None in
            let p = match served with Some p -> p | None -> fallback polys in
            ignore (cost config p);
            p)
      in
      let direct = baseline "baselines.direct" "direct" Baselines.direct in
      let horner = baseline "baselines.horner" "horner" Baselines.horner in
      let factor_cse =
        Span.flow "baselines.factor_cse" (fun () ->
            let p = Baselines.factor_cse polys in
            ignore (cost config p);
            p)
      in
      [ direct; horner; factor_cse; prog ]
  in
  let finished = List.map (finish config polys) programs in
  {
    labels;
    area;
    prog;
    built = Option.is_none cached;
    verified = List.for_all fst finished;
    reps = Array.fold_left (fun acc reps -> acc + List.length reps) 0 store.reps;
    combinations = sel.Search.combinations_evaluated;
    certify_calls = (if config.certify then List.length programs else 0);
    cells_eliminated = List.fold_left (fun acc (_, c) -> acc + c) 0 finished;
  }

let ted_order polys =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
        acc (Poly.vars p))
    [] polys

let non_constant p = not (Poly.is_zero p || Poly.is_const p)

(* The builder probes run only when the request built its store, and each
   starts cold: the kernel and flat-cost memos, which the flow has just
   filled, are emptied before the span opens.  So a probe times the layer's
   own work, as the flow did, rather than reads from those memos. *)
let probes ~built (r : Workload.request) prog =
  let config = r.config and polys = r.polys in
  let cold span f =
    if built then begin
      Kernel.clear_cache ();
      Extract.clear_cost_memo ()
    end;
    Span.probe span (fun () -> if built then Some (f ()) else None)
  in
  let each span f = ignore (cold span (fun () -> List.iter f polys)) in
  let table = Blocktab.create () in
  let divisors =
    Option.value ~default:[]
      (cold "blocks.discover" (fun () ->
           Blocks.discover ?max_blocks:config.max_blocks polys))
  in
  each "horner.rep" (fun p -> ignore (Horner.rep p));
  each "factor.squarefree" (fun p ->
      if non_constant p then ignore (Squarefree.squarefree p));
  each "factor.factorize" (fun p ->
      match Poly.vars p with
      | [ v ] when Poly.degree_in v p >= 2 -> ignore (Factorize.factor v p)
      | _ -> ());
  each "finite_ring.canonical_rep" (fun p ->
      Option.iter (fun ctx -> ignore (Canonical_rep.rep ctx table p)) config.ctx);
  each "cce.extract" (fun p -> ignore (Cce.extract p));
  each "algdiv.decompose" (fun p ->
      ignore (Algdiv.decompose (Algdiv.make_session table ~divisors) p));
  let ted = Ted.create ~order:(ted_order polys) () in
  each "ted.decompose" (fun p -> ignore (Ted.decompose ted (Ted.of_poly ted p)));
  let library =
    List.filteri (fun i _ -> i < 8) divisors
    |> List.map (fun d -> (Blocktab.divisor_var table d, d))
  in
  each "groebner.rewrite" (fun p ->
      if non_constant p then
        try ignore (Buchberger.rewrite_with_library ~library p)
        with Failure _ -> ());
  each "cse.kernels" (fun p -> ignore (Kernel.kernels p));
  ignore
    (cold "cse.extract" (fun () -> Extract.run ~mode:Extract.Vars_only polys));
  let netlist =
    Span.probe "hw.lower" (fun () -> Netlist.of_prog ~width:config.width prog)
  in
  ignore
    (Span.probe "hw.cost" (fun () -> Cost.of_netlist ~model:config.model netlist));
  ignore
    (Span.probe "hw.power_estimate" (fun () ->
         Power.estimate ~samples:16 netlist))
