(* The three workloads.  A workload is one pass of engine requests in a
   seeded order, the requests run untimed at the end of set-up, and
   whether the engine's memo tables are emptied before every request. *)

module Engine = Polysynth_core.Engine
module Search = Polysynth_core.Search
module Poly = Polysynth_poly.Poly
module Canonical = Polysynth_finite_ring.Canonical
module Benchmarks = Polysynth_workloads.Benchmarks
module Examples = Polysynth_workloads.Examples
module Random_system = Polysynth_workloads.Random_system

type kind =
  | Compare  (** [Engine.compare_methods] *)
  | Run  (** [Engine.run Proposed] *)

type request = {
  system : string;
  kind : kind;
  config : Engine.Config.t;
  polys : Poly.t list;
}

type t = {
  clear_each : bool;
      (** [Engine.clear_cache] before every request, so that each one
          builds its own representation store *)
  warmup : request list;
  pass : request list;
}

let names = [ "sg-banks"; "small-search"; "warm-iterate" ]

let label r =
  match (r.kind, r.config.Engine.Config.objective) with
  | Compare, _ -> "compare"
  | Run, Search.Min_area -> "min_area"
  | Run, Search.Min_delay -> "min_delay"
  | Run, Search.Min_power -> "min_power"
  | Run, Search.Min_ops -> "min_ops"

(* Sequential and certified; a ring system gets the ring context of its
   output width. *)
let request ?(kind = Compare) ?(objective = Search.Min_area)
    ?(simplify = false) ~ring (system, polys, width) =
  let ctx =
    if ring then Some (Canonical.make_ctx ~out_width:width ()) else None
  in
  let config =
    {
      (Engine.Config.default ~width) with
      Engine.Config.ctx;
      objective;
      simplify;
      parallelism = 1;
    }
  in
  { system; kind; config; polys }

let shuffle ~seed xs =
  let rng = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Twelve fixed draws of one shape: four polynomials in three variables,
   degree at most 3, at most 6 terms, built over shared linear blocks.
   They are fixed rather than drawn from the seed because their search
   costs differ several-fold: seeded draws would make the spread over
   seeds a change of inputs instead of noise. *)
let random_shape =
  {
    Random_system.num_polys = 4;
    num_vars = 3;
    max_terms = 6;
    max_degree = 3;
    max_coeff = 16;
    sharing = true;
  }

let random_draws () =
  List.init 12 (fun i ->
      ( Printf.sprintf "Random %d" (i + 1),
        Random_system.generate ~seed:(i + 1) random_shape,
        16 ))

let make name ~seed =
  let all = Benchmarks.all () in
  let bench n =
    let b = List.find (fun (b : Benchmarks.t) -> b.name = n) all in
    (n, b.polys, b.width)
  in
  let table_14_1 = ("Table 14.1", Examples.table_14_1, 16) in
  let table_14_2 = ("Table 14.2", Examples.table_14_2, 16) in
  let ring s = request ~ring:true s in
  match name with
  | "sg-banks" ->
    let pass =
      List.map ring
        (List.map bench [ "SG 3x2"; "SG 4x2"; "SG 5x2" ])
    in
    { clear_each = true; warmup = [ List.hd pass ]; pass = shuffle ~seed pass }
  | "small-search" ->
    let rings =
      List.map ring
        ([ table_14_2; bench "Quad"; bench "Mibench"; bench "MVCS" ]
        @ random_draws ())
    in
    let pass = request ~ring:false table_14_1 :: rings in
    { clear_each = true; warmup = [ List.hd rings ]; pass = shuffle ~seed pass }
  | "warm-iterate" ->
    let designer (s, ring, objectives) =
      request ~ring ~simplify:true s
      :: List.map
           (fun objective ->
             request ~kind:Run ~objective ~ring ~simplify:true s)
           objectives
    in
    let all = [ Search.Min_delay; Search.Min_power; Search.Min_ops ] in
    (* SG 3x2 skips Min_power: that one search takes half a pass, so a run
       would hold too few passes for a steady estimate *)
    let systems =
      shuffle ~seed
        [
          (table_14_1, false, all);
          (bench "SG 3x2", true, [ Search.Min_delay; Search.Min_ops ]);
          (bench "Quad", true, all);
          (bench "Mibench", true, all);
          (bench "MVCS", true, all);
        ]
    in
    let pass = List.concat_map designer systems in
    (* one compare_methods per system fills the engine's store, which
       every objective then reads *)
    let warmup = List.filter (fun r -> r.kind = Compare) pass in
    { clear_each = false; warmup; pass }
  | _ -> invalid_arg ("unknown workload " ^ name)
