(* The benchmark program: runs one workload through the Engine API and
   prints one JSON object of raw measurements on its last line.

     main.exe --workload sg-banks|small-search|warm-iterate --seed N
              --setups S --passes P --trace 0|1

   Set-up -- building the inputs and their ring contexts, then the
   workload's untimed warm-up -- runs S times and is timed each time.  The
   timed loop then runs P whole passes, timing every request and checking
   its outcome outside the timed part.  With --trace 1 every
   request is then replayed layer by layer (Replay) and the span totals
   are printed too.  perfbench/run.py turns the raw numbers into the
   benchmark's metrics.

   Everything is timed in process CPU time: the program is
   single-threaded, so on an idle host this equals wall time, and on a
   shared one it leaves out the time other tenants hold the core.  A
   calibration (Calib) follows each timed request, so that run.py can tell
   how fast this process ran. *)

module Engine = Polysynth_core.Engine
module Equiv = Polysynth_analysis.Equiv
module Simplify = Polysynth_analysis.Simplify
module Netlist = Polysynth_hw.Netlist
module Cost = Polysynth_hw.Cost
module Dag = Polysynth_expr.Dag

type measured = {
  request : Workload.request;
  pass : int;
  calib_ns : float;  (** the calibration just after the request *)
  ns : float;
  words : float;  (** minor-heap words the request allocated *)
  replay_ns : float;  (** the traced replay of the request, 0 untraced *)
  flow_ns : float;  (** the part of [replay_ns] inside flow spans *)
  error : string option;  (** why the request failed *)
  proposed : Engine.report option;
  tables : (string * int * int) list;  (** memo hits and misses by table *)
}

let engine_call (r : Workload.request) =
  match r.kind with
  | Workload.Compare -> Engine.compare_methods r.config r.polys
  | Workload.Run ->
    let report, trace = Engine.run r.config Engine.Proposed r.polys in
    ([ report ], trace)

(* Why a report fails, if it does: a certificate other than Verified, or a
   lowered netlist -- the simplified one too, when there is one -- that the
   bit-accurate spot check refutes. *)
let problem (r : Workload.request) (report : Engine.report) =
  let name = Engine.method_label report.method_name in
  match report.cert with
  | Equiv.Refuted _ | Equiv.Unknown _ ->
    Some
      (Printf.sprintf "%s: certificate %s" name (Equiv.cert_label report.cert))
  | Equiv.Verified ->
    let simplified =
      Option.map (fun (o : Simplify.outcome) -> o.netlist) report.simplified
    in
    Netlist.of_prog ~width:r.config.Engine.Config.width report.prog
    :: Option.to_list simplified
    |> List.find_map (fun n ->
           match Equiv.spot_check_netlist r.polys n with
           | Ok () -> None
           | Error (ce : Equiv.counterexample) ->
             Some
               (Printf.sprintf "%s: spot check refutes output %s" name
                  ce.output))

let representation tables =
  List.fold_left
    (fun acc (name, hits, misses) ->
      if name = "representation" then (hits, misses) else acc)
    (0, 0) tables

(* Every request starts from a fully collected heap, so that neither its
   time nor the heap's peak depends on the garbage the request before it
   left: the seed changes the order of requests, not what they cost. *)
let measure (w : Workload.t) ~pass (r : Workload.request) =
  if w.clear_each then Engine.clear_cache ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let outcome = try Ok (engine_call r) with e -> Error (Printexc.to_string e) in
  let ns = (Sys.time () -. t0) *. 1e9 in
  let words = Gc.minor_words () -. w0 in
  let calib_ns = Calib.ns () in
  let m =
    {
      request = r;
      pass;
      calib_ns;
      ns;
      words;
      replay_ns = 0.;
      flow_ns = 0.;
      error = None;
      proposed = None;
      tables = [];
    }
  in
  match outcome with
  | Error e -> { m with error = Some ("raised " ^ e) }
  | Ok (reports, trace) ->
    let tables = trace.Engine.Trace.cache_tables in
    let error =
      match List.find_map (problem r) reports with
      | Some _ as e -> e
      | None ->
        (* after clear_cache the store and the variants are built, never
           served: at least those two lookups miss *)
        if w.clear_each && snd (representation tables) < 2 then
          Some "the representation memo served a cleared request"
        else None
    in
    let proposed =
      List.find_opt
        (fun (p : Engine.report) -> p.method_name = Engine.Proposed)
        reports
    in
    { m with error; proposed; tables }

(* Totals of the traced replay over the timed loop. *)
type replayed = {
  mutable requests : int;
  mutable reps : int;
  mutable combinations : int;
  mutable certify_calls : int;
  mutable cells_eliminated : int;
  cache : (string, int * int) Hashtbl.t;
}

(* Replay the request just measured, from the same starting state, and
   check that the replay chose what the engine chose. *)
let replay (w : Workload.t) memo (t : replayed) (m : measured) =
  if w.clear_each then begin
    Engine.clear_cache ();
    Replay.clear memo
  end;
  Gc.full_major ();
  let traced () =
    let f0 = Span.flow_cpu_ns () and c0 = Sys.time () in
    let o = Replay.request memo m.request in
    let cpu = (Sys.time () -. c0) *. 1e9 and flow = Span.flow_cpu_ns () -. f0 in
    Replay.probes ~built:o.built m.request o.prog;
    (o, cpu, flow)
  in
  match traced () with
  | exception e ->
    { m with error = Some ("replay raised " ^ Printexc.to_string e) }
  | o, replay_ns, flow_ns ->
    t.requests <- t.requests + 1;
    t.reps <- t.reps + o.reps;
    t.combinations <- t.combinations + o.combinations;
    t.certify_calls <- t.certify_calls + o.certify_calls;
    t.cells_eliminated <- t.cells_eliminated + o.cells_eliminated;
    List.iter
      (fun (name, hits, misses) ->
        let h, m = Option.value ~default:(0, 0) (Hashtbl.find_opt t.cache name) in
        Hashtbl.replace t.cache name (h + hits, m + misses))
      m.tables;
    let error =
      match (m.error, m.proposed) with
      | (Some _ as e), _ -> e
      | None, None -> None
      | None, Some p ->
        if not o.verified then Some "replay: a certificate is not Verified"
        else if p.labels <> o.labels || p.cost.Cost.area <> o.area then
          Some
            (Printf.sprintf "replay chose [%s] (area %d), the engine [%s] (area %d)"
               (String.concat "; " o.labels) o.area
               (String.concat "; " p.labels) p.cost.Cost.area)
        else None
    in
    { m with error; replay_ns; flow_ns }

let json_string = Engine.Trace.json_string
let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let measured_json (m : measured) =
  let area, delay, mults, adds, labels =
    match m.proposed with
    | Some p ->
      ( p.cost.Cost.area,
        p.cost.Cost.delay,
        p.counts.Dag.mults,
        p.counts.Dag.adds,
        p.labels )
    | None -> (0, 0., 0, 0, [])
  in
  let hits, misses = representation m.tables in
  Printf.sprintf
    {|{"pass":%d,"system":%s,"kind":%s,"calib_ns":%.0f,"ns":%.0f,"words":%.0f,"replay_ns":%.0f,"flow_ns":%.0f,"error":%s,"area":%d,"delay":%.17g,"mults":%d,"adds":%d,"labels":%s,"memo_hits":%d,"memo_misses":%d}|}
    m.pass
    (json_string m.request.system)
    (json_string (Workload.label m.request))
    m.calib_ns m.ns m.words m.replay_ns m.flow_ns
    (match m.error with Some e -> json_string e | None -> "null")
    area delay mults adds (json_list json_string labels) hits misses

let replayed_json (t : replayed) =
  let span (name, (s : Span.totals)) =
    Printf.sprintf {|%s:{"calls":%d,"ns":%.0f,"flow_ns":%.0f,"words":%.0f}|}
      (json_string name) s.calls s.ns s.flow_ns s.words
  in
  let table (name, (hits, misses)) =
    Printf.sprintf "%s:[%d,%d]" (json_string name) hits misses
  in
  let tables =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cache [] |> List.sort compare
  in
  Printf.sprintf
    {|{"requests":%d,"reps":%d,"combinations":%d,"certify_calls":%d,"cells_eliminated":%d,"cache":{%s},"spans":{%s}}|}
    t.requests t.reps t.combinations t.certify_calls t.cells_eliminated
    (String.concat "," (List.map table tables))
    (String.concat "," (List.map span (Span.all ())))

let usage =
  "main.exe --workload sg-banks|small-search|warm-iterate --seed N --setups S \
   --passes P --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and setups = ref 1 and passes = ref 1
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME the workload to run");
      ("--seed", Arg.Set_int seed, "N the input seed");
      ("--setups", Arg.Set_int setups, "S how many timed set-ups to run");
      ("--passes", Arg.Set_int passes, "P how many timed passes to run");
      ("--trace", Arg.Set_int trace, "0|1 replay every request with spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    not
      (List.mem !workload Workload.names
      && !setups >= 1
      && !passes >= 1
      && (!trace = 0 || !trace = 1))
  then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let memo = Replay.create () in
  let setup () =
    Gc.full_major ();
    let t0 = Sys.time () in
    Engine.clear_cache ();
    Replay.clear memo;
    let w = Workload.make !workload ~seed:!seed in
    List.iter
      (fun r ->
        ignore (engine_call r);
        if traced then ignore (Replay.request memo r))
      w.warmup;
    (w, Sys.time () -. t0)
  in
  let rec repeat k times =
    let w, s = setup () in
    if k = 1 then (w, List.rev (s :: times)) else repeat (k - 1) (s :: times)
  in
  let w, setup_s = repeat !setups [] in
  Span.reset ();
  let totals =
    {
      requests = 0;
      reps = 0;
      combinations = 0;
      certify_calls = 0;
      cells_eliminated = 0;
      cache = Hashtbl.create 4;
    }
  in
  let results = ref [] in
  for pass = 0 to !passes - 1 do
    List.iter
      (fun r ->
        let m = measure w ~pass r in
        results := (if traced then replay w memo totals m else m) :: !results)
      w.Workload.pass
  done;
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  Printf.printf
    {|{"workload":%s,"seed":%d,"clear_each":%b,"passes":%d,"setup_s":%s,"peak_heap_mb":%.17g,"requests":%s,"trace":%s}|}
    (json_string !workload) !seed w.clear_each !passes
    (json_list (Printf.sprintf "%.17g") setup_s)
    peak_heap_mb
    (json_list measured_json (List.rev !results))
    (if traced then replayed_json totals else "null");
  print_newline ()
