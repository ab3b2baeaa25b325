(* The unified synthesis engine: the one entry point for Algorithm 7. *)

module Poly = Polysynth_poly.Poly
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Cost = Polysynth_hw.Cost
module Canonical = Polysynth_finite_ring.Canonical
module Kernel = Polysynth_cse.Kernel
module Equiv = Polysynth_analysis.Equiv
module Absint = Polysynth_analysis.Absint
module Domains = Polysynth_analysis.Domains
module Simplify = Polysynth_analysis.Simplify
module Netlist = Polysynth_hw.Netlist

type method_name = Direct | Horner | Factor_cse | Proposed

let method_label = function
  | Direct -> "direct"
  | Horner -> "horner"
  | Factor_cse -> "factor+cse"
  | Proposed -> "proposed"

type report = {
  method_name : method_name;
  prog : Prog.t;
  netlist : Netlist.t;
  counts : Dag.counts;
  cost : Cost.report;
  labels : string list;
  cert : Equiv.cert;
  simplified : Simplify.outcome option;
}

(* ---- configuration ---------------------------------------------------- *)

module Config = struct
  type t = {
    width : int;
    ctx : Canonical.ctx option;
    model : Cost.model;
    objective : Search.objective;
    parallelism : int;
    time_budget : float option;
    candidate_budget : int option;
    max_blocks : int option;
    cache : bool;
    certify : bool;
    simplify : bool;
  }

  let default ~width =
    {
      width;
      ctx = None;
      model = Cost.default;
      objective = Search.Min_area;
      parallelism = 0;
      time_budget = None;
      candidate_budget = None;
      max_blocks = None;
      cache = true;
      certify = true;
      simplify = false;
    }

  let domains t =
    if t.parallelism > 0 then t.parallelism
    else Domain.recommended_domain_count ()

  let search_options ?budget t =
    {
      (Search.default_options ~width:t.width) with
      Search.model = t.model;
      objective = t.objective;
      budget;
    }
end

(* ---- trace ------------------------------------------------------------ *)

module Trace = struct
  type stage = { name : string; wall : float; candidates : int }

  type t = {
    parallelism : int;
    stages : stage list;
    cache_hits : int;
    cache_misses : int;
    cache_tables : (string * int * int) list;
    budget_exhausted : bool;
    certificates : (string * string) list;
    wall : float;
  }

  let to_text t =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "trace: %.3f ms wall, parallelism %d\n" (1000. *. t.wall)
         t.parallelism);
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "  %-26s %9.3f ms  %d candidate%s\n" s.name
             (1000. *. s.wall) s.candidates
             (if s.candidates = 1 then "" else "s")))
      t.stages;
    Buffer.add_string b
      (Printf.sprintf "  cache: %d hit%s, %d miss%s\n" t.cache_hits
         (if t.cache_hits = 1 then "" else "s")
         t.cache_misses
         (if t.cache_misses = 1 then "" else "es"));
    List.iter
      (fun (name, h, m) ->
        Buffer.add_string b
          (Printf.sprintf "    %-14s %d hit%s, %d miss%s\n" name h
             (if h = 1 then "" else "s")
             m
             (if m = 1 then "" else "es")))
      t.cache_tables;
    if t.budget_exhausted then
      Buffer.add_string b "  budget exhausted: the search stopped early\n";
    List.iter
      (fun (m, status) ->
        Buffer.add_string b
          (Printf.sprintf "  certificate: %-12s %s\n" m status))
      t.certificates;
    Buffer.contents b

  let pp fmt t = Format.pp_print_string fmt (to_text t)

  let json_string = Polysynth_analysis.Diag.json_string

  let to_json t =
    let stage s =
      Printf.sprintf {|{"name":%s,"wall_ms":%.3f,"candidates":%d}|}
        (json_string s.name) (1000. *. s.wall) s.candidates
    in
    let certificate (m, status) =
      Printf.sprintf {|{"method":%s,"status":%s}|} (json_string m)
        (json_string status)
    in
    let table (name, h, m) =
      Printf.sprintf {|{"name":%s,"hits":%d,"misses":%d}|} (json_string name) h
        m
    in
    Printf.sprintf
      {|{"parallelism":%d,"wall_ms":%.3f,"cache":{"hits":%d,"misses":%d,"tables":[%s]},"budget_exhausted":%b,"certificates":[%s],"stages":[%s]}|}
      t.parallelism (1000. *. t.wall) t.cache_hits t.cache_misses
      (String.concat "," (List.map table t.cache_tables))
      t.budget_exhausted
      (String.concat "," (List.map certificate t.certificates))
      (String.concat "," (List.map stage t.stages))
end

(* ---- memo table ------------------------------------------------------- *)

(* Two bounded FIFO tables keyed by the printed system plus the ring
   signature: the representation store and the integrated variants, so
   that repeated runs on the same system perform [Represent.build] and
   [Integrated.variants] once. *)
module Memo = Polysynth_zint.Memo.Make (String)

let stores : Represent.t Memo.t = Memo.create 32
let variant_lists : (string * Prog.t) list Memo.t = Memo.create 32

let memo_key ~ctx polys =
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
     let vars =
       List.concat_map Poly.vars polys |> List.sort_uniq String.compare
     in
     List.iter
       (fun v ->
         Buffer.add_string b
           (Printf.sprintf ",%s:%d" v (Canonical.var_width ctx v)))
       vars);
  Buffer.contents b

(* The engine manages two memo layers: its own representation/variant
   store above (consulted only when [Config.cache] is on) and the
   kernelling memo inside Polysynth_cse.Kernel that serves the extraction
   loops (always on: it caches a pure function, so no per-run setting
   touches it).  They are cleared together here (the single lifecycle
   point) and the trace reports both the merged totals and the per-table
   split. *)
let cache_table_stats () =
  let sh, sm = Memo.stats stores and vh, vm = Memo.stats variant_lists in
  [ ("representation", (sh + vh, sm + vm)); ("kernel", Kernel.cache_stats ()) ]

let clear_cache () =
  Memo.clear stores;
  Memo.clear variant_lists;
  Kernel.clear_cache ()

(* ---- parallel map over a domain pool ---------------------------------- *)

(* Work-stealing by atomic index over at most [domains] domains (including
   the calling one).  Falls back to [List.map] when the pool would have a
   single domain or a single item, so single-core hosts keep the exact
   sequential code path. *)
let parallel_map ~domains f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when domains <= 1 -> List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e);
          loop ()
        end
      in
      loop ()
    in
    let pool =
      List.init (min domains n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join pool;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)

(* ---- budget ----------------------------------------------------------- *)

(* One budget closure is shared by the representation search and the
   integrated variants: every "may another candidate be evaluated?" call
   consumes a slot and checks the deadline.  The first candidate of each
   stage is always evaluated, so exhaustion still leaves a valid result. *)
let make_budget (config : Config.t) =
  match (config.time_budget, config.candidate_budget) with
  | None, None -> (None, fun () -> false)
  | time, cand ->
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) time in
    let used = Atomic.make 0 in
    let tripped = Atomic.make false in
    let ok () =
      let n = Atomic.fetch_and_add used 1 in
      let fine =
        (match cand with None -> true | Some c -> n < c)
        && (match deadline with
            | None -> true
            | Some d -> Unix.gettimeofday () < d)
      in
      if not fine then Atomic.set tripped true;
      fine
    in
    (Some ok, fun () -> Atomic.get tripped)

(* ---- the flow --------------------------------------------------------- *)

let now = Unix.gettimeofday

let stage stages name f =
  let t0 = now () in
  let r, candidates = f () in
  stages := { Trace.name; wall = now () -. t0; candidates } :: !stages;
  r

let report_of method_name prog labels (netlist, cost, counts) =
  {
    method_name;
    prog;
    netlist;
    counts;
    cost;
    labels;
    cert = Equiv.Unknown "not certified";
    simplified = None;
  }

(* The store and the variant lists are read and filled only when
   [config.cache] is on; a result [keep] refuses is returned uncached. *)
let memoized (config : Config.t) table key ?(keep = fun _ -> true) build =
  match if config.cache then Memo.find table key else None with
  | Some v -> v
  | None ->
    let v = build () in
    if config.cache && keep v then Memo.add table key v;
    v

let obtain_store (config : Config.t) key polys =
  memoized config stores key (fun () ->
      Represent.build ?ctx:config.ctx ?max_blocks:config.max_blocks polys)

let obtain_variants (config : Config.t) ~pmap ~may key polys =
  (* only a complete set may be cached — a budget-truncated list would
     poison later unbudgeted runs *)
  let keep built = List.length built = List.length Integrated.variants in
  memoized config variant_lists key ~keep (fun () ->
      let indexed = List.mapi (fun i b -> (i, b)) Integrated.variants in
      pmap
        (fun (i, (label, build)) ->
          (* the first variant is always built; the rest consume budget *)
          if i = 0 || may () then Some (label, build polys) else None)
        indexed
      |> List.filter_map Fun.id)

(* The Proposed flow of Algorithm 7, instrumented: representation build
   (sequential, one algebraic-division memo for the system), combination
   search, integrated whole-system variants (fanned out per variant), then
   the competition under the search objective with first-best
   tie-breaking. *)
let proposed (config : Config.t) ~prefix stages budget_ok polys =
  let domains = Config.domains config in
  let pmap f xs = parallel_map ~domains f xs in
  let may () = match budget_ok with None -> true | Some ok -> ok () in
  let options = Config.search_options ?budget:budget_ok config in
  let key = memo_key ~ctx:config.ctx polys in
  let store =
    stage stages (prefix ^ "represent") (fun () ->
        let s = obtain_store config key polys in
        ( s,
          Array.fold_left
            (fun acc reps -> acc + List.length reps)
            0 s.Represent.reps ))
  in
  let sel =
    stage stages (prefix ^ "search") (fun () ->
        let sel = Search.select options store in
        (sel, sel.Search.combinations_evaluated))
  in
  let scored (label, prog) =
    let key, measured = Search.score_full options prog in
    (key, report_of Proposed prog [ label ] measured)
  in
  (* the variants are scored inside their stage, warm or cold: only their
     construction is memoized *)
  let variants =
    stage stages (prefix ^ "integrated") (fun () ->
        let vs = obtain_variants config ~pmap ~may key polys in
        (List.map scored vs, List.length vs))
  in
  let searched =
    ( sel.Search.key,
      report_of Proposed sel.Search.prog sel.Search.labels
        (sel.Search.netlist, sel.Search.cost, sel.Search.counts) )
  in
  snd
    (List.fold_left
       (fun (bk, br) (ck, cr) -> if ck < bk then (ck, cr) else (bk, br))
       searched variants)

let baseline (config : Config.t) ~prefix stages method_name polys =
  stage stages (prefix ^ "baseline") (fun () ->
      let prog =
        match method_name with
        | Direct -> Baselines.direct polys
        | Horner -> Baselines.horner polys
        | Factor_cse -> Baselines.factor_cse polys
        | Proposed -> assert false
      in
      ( report_of method_name prog []
          (Search.measure (Config.search_options config) prog),
        1 ))

(* Certification is the engine's last stage per method: the selected
   decomposition is checked against the source system and the resulting
   certificate is carried on the report and summarized in the trace. *)
let certify_report (config : Config.t) ~prefix stages certs polys r =
  if not config.Config.certify then r
  else begin
    let cert =
      stage stages (prefix ^ "certify") (fun () ->
          (Equiv.certify ?ctx:config.Config.ctx polys r.prog, 1))
    in
    certs := (method_label r.method_name, Equiv.cert_label cert) :: !certs;
    { r with cert }
  end

(* When [config.simplify] is on, the constant analysis runs over the
   report's netlist (an "analyze" stage whose candidate count is the number
   of cells with a constant fact), and the certificate-guarded simplify pass
   rewrites it (a "simplify" stage counting eliminated cells).  The outcome
   rides on the report; [report.prog] and [report.netlist] are untouched —
   the simplified artifact is the outcome's netlist. *)
let simplify_report (config : Config.t) ~prefix stages polys r =
  if not config.Config.simplify then r
  else begin
    let width = config.Config.width in
    let n = r.netlist in
    let facts =
      stage stages (prefix ^ "analyze") (fun () ->
          let facts = Absint.constants n in
          let constants =
            Array.fold_left
              (fun acc f ->
                if Option.is_some (Domains.Const.as_const ~width f) then
                  acc + 1
                else acc)
              0 facts
          in
          (facts, constants))
    in
    let outcome =
      stage stages (prefix ^ "simplify") (fun () ->
          let o = Simplify.run ~system:(Prog.name_outputs polys) ~facts n in
          (o, Simplify.cells_eliminated o))
    in
    { r with simplified = Some outcome }
  end

let with_trace (config : Config.t) f =
  let t0 = now () in
  let tables0 = cache_table_stats () in
  let stages = ref [] in
  let certs = ref [] in
  let budget_ok, budget_tripped = make_budget config in
  let result = f stages certs budget_ok in
  let cache_tables =
    List.map2
      (fun (name, (h0, m0)) (_, (h1, m1)) -> (name, h1 - h0, m1 - m0))
      tables0 (cache_table_stats ())
  in
  let cache_hits, cache_misses =
    List.fold_left (fun (h, m) (_, th, tm) -> (h + th, m + tm)) (0, 0)
      cache_tables
  in
  ( result,
    {
      Trace.parallelism = Config.domains config;
      stages = List.rev !stages;
      cache_hits;
      cache_misses;
      cache_tables;
      budget_exhausted = budget_tripped ();
      certificates = List.rev !certs;
      wall = now () -. t0;
    } )

let run config method_name polys =
  with_trace config (fun stages certs budget_ok ->
      let prefix = method_label method_name ^ "/" in
      let r =
        match method_name with
        | Proposed -> proposed config ~prefix stages budget_ok polys
        | m -> baseline config ~prefix stages m polys
      in
      let r = certify_report config ~prefix stages certs polys r in
      simplify_report config ~prefix stages polys r)

let synthesize config polys = run config Proposed polys

let compare_methods config polys =
  with_trace config (fun stages certs budget_ok ->
      let prop = proposed config ~prefix:"proposed/" stages budget_ok polys in
      let direct = baseline config ~prefix:"direct/" stages Direct polys in
      let horner = baseline config ~prefix:"horner/" stages Horner polys in
      let factor =
        baseline config ~prefix:"factor+cse/" stages Factor_cse polys
      in
      List.map
        (fun r ->
          let prefix = method_label r.method_name ^ "/" in
          let r = certify_report config ~prefix stages certs polys r in
          simplify_report config ~prefix stages polys r)
        [ direct; horner; factor; prop ])
