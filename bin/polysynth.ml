(* Command-line front-end: synthesize a polynomial system from a text file.

   Example:
     polysynth system.poly --method proposed --width 16 --ring \
               --verilog out.v --show-program *)

module Poly = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module Ring = Polysynth_finite_ring.Canonical
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Cost = Polysynth_hw.Cost
module Verilog = Polysynth_hw.Verilog
module Netlist = Polysynth_hw.Netlist
module Power = Polysynth_hw.Power
module Dot = Polysynth_hw.Dot
module Testbench = Polysynth_hw.Testbench
module Cemit = Polysynth_hw.Cemit
module Mcm = Polysynth_hw.Mcm
module Prog_parse = Polysynth_expr.Prog_parse
module Stage = Polysynth_hw.Stage
module Fsmd = Polysynth_hw.Fsmd
module Schedule = Polysynth_hw.Schedule
module Bind = Polysynth_hw.Bind
module Engine = Polysynth_core.Engine
module Search = Polysynth_core.Search
module Suite = Polysynth_analysis.Suite
module Equiv = Polysynth_analysis.Equiv
module Diag = Polysynth_analysis.Diag
module Absint = Polysynth_analysis.Absint
module Widths = Polysynth_analysis.Widths
module Simplify = Polysynth_analysis.Simplify
module Benchmarks = Polysynth_workloads.Benchmarks

open Cmdliner

(* ---- one record instead of seventeen positional parameters ------------ *)

type options = {
  input : string;
  method_name : Engine.method_name;
  width : int;
  use_ring : bool;
  objective : Search.objective;
  jobs : int;
  time_budget : float option;
  candidate_budget : int option;
  no_cache : bool;
  verilog_out : string option;
  dot_out : string option;
  testbench_out : string option;
  fsmd_out : string option;
  c_out : string option;
  use_mcm : bool;
  show_power : bool;
  show_range : bool;
  pipeline_period : float option;
  show_program : bool;
  compare_all : bool;
  evaluate : bool;
  json : bool;
  show_trace : bool;
  check : bool;
  lint : bool;
  analyze : bool;
  simplify : bool;
  benchmark : string option;
}

let config_of options =
  let ctx =
    if options.use_ring then Some (Ring.make_ctx ~out_width:options.width ())
    else None
  in
  {
    (Engine.Config.default ~width:options.width) with
    Engine.Config.ctx;
    objective = options.objective;
    parallelism = options.jobs;
    time_budget = options.time_budget;
    candidate_budget = options.candidate_budget;
    cache = not options.no_cache;
    simplify = options.simplify;
  }

let read_input = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> In_channel.with_open_text path In_channel.input_all

(* ---- JSON report ------------------------------------------------------ *)

let json_of_report (r : Engine.report) =
  Printf.sprintf
    {|{"method":"%s","mults":%d,"adds":%d,"area":%d,"delay":%.3f,"labels":[%s],"certificate":%s}|}
    (Engine.method_label r.Engine.method_name)
    r.Engine.counts.Dag.mults r.Engine.counts.Dag.adds r.Engine.cost.Cost.area
    r.Engine.cost.Cost.delay
    (String.concat ","
       (List.map (fun l -> Engine.Trace.json_string l) r.Engine.labels))
    (Equiv.cert_to_json r.Engine.cert)

let print_json ~options ~verified ?lint reports trace =
  Printf.printf
    {|{"width":%d,"ring":%b,"verified":%b,"reports":[%s],"lint":%s,"trace":%s}|}
    options.width options.use_ring verified
    (String.concat "," (List.map json_of_report reports))
    (match lint with Some l -> Suite.to_json l | None -> "null")
    (Engine.Trace.to_json trace);
  print_newline ()

(* ---- static analysis --------------------------------------------------- *)

let is_verified = function Equiv.Verified -> true | _ -> false

(* equivalence certification already ran inside the engine; the suite here
   checks the program, the netlist it was costed on and the simplify
   outcome -- the engine's when --simplify ran, otherwise one run here
   against [system], the polynomial of each output by name *)
let lint_of ~ctx ~system ?simplified prog netlist =
  let simplified =
    match simplified with
    | Some o -> o
    | None -> Simplify.run ~system netlist
  in
  Suite.analyze ?ctx prog netlist simplified

let print_lint l =
  let ds = Suite.diags l in
  if ds = [] then print_string "lint: no findings\n"
  else List.iter (fun d -> Printf.printf "lint: %s\n" (Diag.to_string d)) ds

(* 0 ok; 2 certificate not Verified; 4 scheduler/binder invariant
   violation; 3 other error-severity lint findings (Suite.exit_code
   encodes the 4-before-3 precedence) *)
let exit_code ~cert ~lint =
  match cert with
  | Some c when not (is_verified c) -> 2
  | _ -> (match lint with Some l -> Suite.exit_code l | None -> 0)

(* ---- evaluate mode ----------------------------------------------------- *)

let evaluate_program options text =
  match Prog_parse.program text with
  | Error (`Parse msg) ->
    Printf.eprintf "program error: %s\n" msg;
    1
  | Ok prog ->
    (* one lowering of the given program feeds its cost and its lint *)
    let netlist = Netlist.of_prog ~width:options.width prog in
    let cost = Cost.of_netlist netlist in
    let counts = Prog.counts prog in
    Printf.printf "given decomposition: MULT=%d ADD=%d area=%d delay=%.1f\n"
      counts.Dag.mults counts.Dag.adds cost.Cost.area cost.Cost.delay;
    let config = config_of options in
    let ctx = config.Engine.Config.ctx in
    (* the expanded program: the reference of its lint, and the system
       re-synthesized for comparison *)
    let system = Prog.to_polys prog in
    let lint =
      if options.lint then Some (lint_of ~ctx ~system prog netlist) else None
    in
    Option.iter print_lint lint;
    let r, _trace = Engine.run config Engine.Proposed (List.map snd system) in
    Printf.printf "proposed flow:       MULT=%d ADD=%d area=%d delay=%.1f\n"
      r.Engine.counts.Dag.mults r.Engine.counts.Dag.adds
      r.Engine.cost.Cost.area r.Engine.cost.Cost.delay;
    if options.check then
      Printf.printf "certificate (proposed vs. given): %s\n"
        (Equiv.cert_to_string r.Engine.cert);
    if r.Engine.cost.Cost.area < cost.Cost.area then
      Format.printf "better decomposition found:@.%a@." Prog.pp r.Engine.prog;
    exit_code ~cert:(if options.check then Some r.Engine.cert else None) ~lint

(* ---- benchmark mode ---------------------------------------------------- *)

(* Run the built-in Table 14.3 systems, each at its published width, and
   certify/lint every result.  This is the CI "lint" target: the exit code
   is the worst per-benchmark {!exit_code}. *)
let run_benchmarks options name =
  let benches =
    match name with
    | "all" -> Ok (Benchmarks.all ())
    | n ->
      (match Benchmarks.by_name n with
       | Some b -> Ok [ b ]
       | None ->
         Error
           (Printf.sprintf
              "unknown benchmark %s (try 'all', or one of: %s)" n
              (String.concat ", "
                 (List.map
                    (fun b -> b.Benchmarks.name)
                    (Benchmarks.all ())))))
  in
  match benches with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Ok benches ->
    let worst = ref 0 in
    List.iter
      (fun (b : Benchmarks.t) ->
        let options = { options with width = b.Benchmarks.width } in
        let config = config_of options in
        let r, _trace = Engine.run config options.method_name b.Benchmarks.polys in
        let lint =
          if options.lint then
            Some
              (lint_of ~ctx:config.Engine.Config.ctx
                 ~system:(Prog.name_outputs b.Benchmarks.polys)
                 ?simplified:r.Engine.simplified r.Engine.prog r.Engine.netlist)
          else None
        in
        let code = exit_code ~cert:(Some r.Engine.cert) ~lint in
        worst := Stdlib.max !worst code;
        let errors, warnings =
          match lint with
          | None -> (0, 0)
          | Some l ->
            List.fold_left
              (fun (e, w) (d : Diag.t) ->
                match d.Diag.severity with
                | Diag.Error -> (e + 1, w)
                | Diag.Warning -> (e, w + 1)
                | Diag.Info -> (e, w))
              (0, 0) (Suite.diags l)
        in
        Printf.printf
          "%-10s width=%-3d MULT=%-3d ADD=%-3d area=%-6d %-9s %d error(s), \
           %d warning(s)\n"
          b.Benchmarks.name b.Benchmarks.width r.Engine.counts.Dag.mults
          r.Engine.counts.Dag.adds r.Engine.cost.Cost.area
          (Equiv.cert_label r.Engine.cert)
          errors warnings;
        (match r.Engine.cert with
         | Equiv.Verified -> ()
         | c -> Printf.printf "  %s\n" (Equiv.cert_to_string c));
        (match r.Engine.simplified with
         | Some o ->
           Printf.printf
             "  simplify: %d -> %d cell(s), %d rewrite(s) applied, %d \
              rejected\n"
             o.Simplify.stats.Simplify.cells_before
             o.Simplify.stats.Simplify.cells_after
             o.Simplify.stats.Simplify.applied
             o.Simplify.stats.Simplify.rejected
         | None -> ());
        match lint with
        | Some l when Diag.has_errors (Suite.diags l) ->
          List.iter
            (fun d ->
              if d.Diag.severity = Diag.Error then
                Printf.printf "  %s\n" (Diag.to_string d))
            (Suite.diags l)
        | _ -> ())
      benches;
    !worst

(* ---- synthesis mode ---------------------------------------------------- *)

(* Widest datapath accepted.  The canonical-form builders of --ring slow
   down sharply with the width (seconds for one cubic at 8192 bits), and
   no datapath of interest is wider. *)
let max_width = 1024

(* The option values no run can use, as a usage error.  The checks are
   written as what a valid value satisfies, so that nan fails them. *)
let usage_error options =
  let fails valid = function Some x -> not (valid x) | None -> false in
  (* the reports that print text of their own, which --json would mix
     into its one object *)
  let text_only =
    List.find_opt fst
      [
        (options.show_program, "--show-program");
        (options.analyze, "--analyze");
        (options.show_power, "--power");
        (options.show_range, "--range");
        (Option.is_some options.pipeline_period, "--pipeline");
        (Option.is_some options.benchmark, "--benchmark");
        (options.evaluate, "--evaluate");
      ]
  in
  if options.width < 1 || options.width > max_width then
    Some
      (Printf.sprintf "--width must be between 1 and %d (got %d)" max_width
         options.width)
  else if options.jobs < 0 then
    Some (Printf.sprintf "--jobs must be 0 or more (got %d)" options.jobs)
  else if fails (fun t -> t >= 0.) options.time_budget then
    Some "--time-budget must be 0 or more seconds"
  else if fails (fun c -> c >= 0) options.candidate_budget then
    Some "--candidate-budget must be 0 or more"
  else if fails (fun p -> p > 0.) options.pipeline_period then
    Some "--pipeline must be a positive clock period"
  else if Option.is_some options.c_out && options.width > 64 then
    Some "--emit-c needs --width of at most 64"
  else
    match text_only with
    | Some (_, flag) when options.json ->
      Some (Printf.sprintf "--json prints one JSON object: drop %s" flag)
    | _ -> None

let run_synthesis options =
  match usage_error options with
  | Some msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | None ->
  match options.benchmark with
  | Some name -> run_benchmarks options name
  | None ->
  match read_input options.input with
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | text ->
  if options.evaluate then evaluate_program options text
  else
    match Parse.system text with
    | Error (`Parse msg) ->
      Printf.eprintf "parse error %s\n" msg;
      1
    | Ok [] ->
      Printf.eprintf "no polynomials in input\n";
      1
    | Ok polys ->
      (* an input named like an output would be both a port and a wire of
         the emitted code *)
      let vars = List.concat_map Poly.vars polys in
      match
        List.find_opt (fun (o, _) -> List.mem o vars) (Prog.name_outputs polys)
      with
      | Some (o, _) ->
        Printf.eprintf
          "error: variable %s is named like an output of the system\n" o;
        1
      | None ->
      let config = config_of options in
      let reports, trace =
        if options.compare_all then Engine.compare_methods config polys
        else
          let r, t = Engine.run config options.method_name polys in
          ([ r ], t)
      in
      let main_report = List.nth reports (List.length reports - 1) in
      let verified = is_verified main_report.Engine.cert in
      let lint =
        if options.lint then
          Some
            (lint_of ~ctx:config.Engine.Config.ctx
               ~system:(Prog.name_outputs polys)
               ?simplified:main_report.Engine.simplified main_report.Engine.prog
               main_report.Engine.netlist)
        else None
      in
      let print_report r =
        Printf.printf "%-12s MULT=%d ADD=%d area=%d delay=%.1f%s\n"
          (Engine.method_label r.Engine.method_name)
          r.Engine.counts.Dag.mults r.Engine.counts.Dag.adds
          r.Engine.cost.Cost.area r.Engine.cost.Cost.delay
          (match r.Engine.labels with
           | [] -> ""
           | labels -> "  [" ^ String.concat "," labels ^ "]")
      in
      if options.json then print_json ~options ~verified ?lint reports trace
      else begin
        List.iter print_report reports;
        Printf.printf "verified: %b%s\n" verified
          (if options.use_ring then " (as bit-vector functions)" else " (exact)");
        if options.check then
          List.iter
            (fun r ->
              Printf.printf "certificate (%s): %s\n"
                (Engine.method_label r.Engine.method_name)
                (Equiv.cert_to_string r.Engine.cert))
            reports;
        Option.iter print_lint lint;
        (match main_report.Engine.simplified with
         | Some o ->
           Printf.printf
             "simplify: %d -> %d cell(s), %d rewrite(s) applied, %d \
              rejected, %d certificate(s)\n"
             o.Simplify.stats.Simplify.cells_before
             o.Simplify.stats.Simplify.cells_after
             o.Simplify.stats.Simplify.applied
             o.Simplify.stats.Simplify.rejected
             o.Simplify.stats.Simplify.certificates;
           List.iter
             (fun rw ->
               Printf.printf "  c%d: %s\n" rw.Simplify.cell
                 (Simplify.describe rw))
             o.Simplify.applied
         | None -> ());
        if options.show_trace then print_string (Engine.Trace.to_text trace)
      end;
      if options.show_program then
        Format.printf "@.program:@.%a@." Prog.pp main_report.Engine.prog;
      let netlist =
        lazy
          (let n =
             (* the simplified netlist is certified equivalent, so every
                downstream consumer (emission, power, pipelining) works
                from it when --simplify ran *)
             match main_report.Engine.simplified with
             | Some o -> o.Simplify.netlist
             | None -> main_report.Engine.netlist
           in
           if options.use_mcm then Mcm.optimize n else n)
      in
      if options.analyze then begin
        let n = Lazy.force netlist in
        Printf.printf "analysis (pre-wrap interval | constant mod 2^%d):\n"
          n.Netlist.width;
        List.iter
          (fun line -> Printf.printf "  %s\n" line)
          (Absint.to_strings n)
      end;
      if options.use_mcm && not options.json then begin
        let r = Cost.of_netlist (Lazy.force netlist) in
        Printf.printf "after MCM: area=%d delay=%.1f\n" r.Cost.area r.Cost.delay
      end;
      if options.show_power then begin
        let p = Power.estimate (Lazy.force netlist) in
        Format.printf "%a@." Power.pp_report p
      end;
      (match options.pipeline_period with
       | None -> ()
       | Some period ->
         let st = Stage.cut ~target_period:period (Lazy.force netlist) in
         Printf.printf
           "pipelining at period %.1f: %d stage(s), %d pipeline register(s), \
            achieved period %.1f\n"
           period st.Stage.num_stages st.Stage.pipeline_registers
           st.Stage.achieved_period);
      if options.show_range then begin
        let n = Lazy.force netlist in
        Printf.printf
          "range analysis: widest intermediate needs %d bits (growth %d over \
           the %d-bit datapath)\n"
          (Widths.max_required_width n) (Widths.growth n) options.width
      end;
      (* under --json, stdout holds the JSON object alone *)
      let notes = if options.json then stderr else stdout in
      let write path contents =
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc contents);
        Printf.fprintf notes "wrote %s\n" path
      in
      (match options.verilog_out with
       | None -> ()
       | Some path ->
         write path
           (Verilog.emit ~module_name:"polysynth_dut" (Lazy.force netlist)));
      (match options.dot_out with
       | None -> ()
       | Some path -> write path (Dot.of_netlist (Lazy.force netlist)));
      (match options.fsmd_out with
       | None -> ()
       | Some path ->
         let n = Lazy.force netlist in
         let b =
           Bind.bind n
             (Schedule.list_schedule_exn
                { Schedule.multipliers = 1; adders = 1 }
                n)
         in
         let states = Fsmd.states b in
         Printf.fprintf notes
           "fsmd: %d states, %d registers, %d micro-ops (1 multiplier, 1 adder)\n"
           (Array.length states) b.Bind.num_registers
           (Array.fold_left (fun acc ops -> acc + List.length ops) 0 states);
         write path (Fsmd.to_verilog ~module_name:"polysynth_fsmd" b));
      (match options.testbench_out with
       | None -> ()
       | Some path ->
         write path
           (Testbench.emit ~module_name:"polysynth_dut" (Lazy.force netlist)));
      (match options.c_out with
       | None -> ()
       | Some path ->
         write path
           (Cemit.emit ~func_name:"polysynth_dut" ~self_check:16
              (Lazy.force netlist)));
      (* --check prints every report's certificate, and the worst decides *)
      let certs =
        if options.check then List.map (fun r -> r.Engine.cert) reports
        else [ main_report.Engine.cert ]
      in
      let cert =
        Option.value ~default:main_report.Engine.cert
          (List.find_opt (fun c -> not (is_verified c)) certs)
      in
      exit_code ~cert:(Some cert) ~lint

(* ---- command line ------------------------------------------------------ *)

let input_arg =
  let doc =
    "Input file with one polynomial per line or ';'-separated (use '-' for \
     stdin).  Syntax: 4*x^2*y - 3*x + 7; '#' starts a comment."
  in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let method_arg =
  let methods =
    [
      ("direct", Engine.Direct);
      ("horner", Engine.Horner);
      ("factor-cse", Engine.Factor_cse);
      ("proposed", Engine.Proposed);
    ]
  in
  let doc =
    "Synthesis method: direct, horner, factor-cse (the [13] baseline) or \
     proposed (the paper's integrated flow)."
  in
  Arg.(
    value
    & opt (enum methods) Engine.Proposed
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let width_arg =
  let doc =
    Printf.sprintf "Datapath bit-width (the m of Z_2^m); from 1 to %d."
      max_width
  in
  Arg.(value & opt int 16 & info [ "w"; "width" ] ~docv:"BITS" ~doc)

let ring_arg =
  let doc =
    "Optimize modulo 2^width: enables the canonical-form representations \
     (the result equals the input as a bit-vector function, not as an \
     integer polynomial)."
  in
  Arg.(value & flag & info [ "ring" ] ~doc)

let objective_arg =
  let objectives =
    [
      ("area", Search.Min_area);
      ("delay", Search.Min_delay);
      ("power", Search.Min_power);
      ("ops", Search.Min_ops);
    ]
  in
  let doc = "Optimization objective: area (default, as in the paper), delay, \
             power (switching-activity estimate) or ops." in
  Arg.(
    value
    & opt (enum objectives) Search.Min_area
    & info [ "objective" ] ~docv:"OBJ" ~doc)

let jobs_arg =
  let doc =
    "Degree of parallelism for the engine's domain pool (0 = one domain \
     per recommended core, 1 = sequential)."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let time_budget_arg =
  let doc = "Wall-clock budget in seconds for the candidate search." in
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECS" ~doc)

let candidate_budget_arg =
  let doc =
    "Extra candidate evaluations allowed after the mandatory first of each \
     stage."
  in
  Arg.(
    value & opt (some int) None & info [ "candidate-budget" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc = "Disable the engine's representation/variant memo." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let verilog_arg =
  let doc = "Emit synthesizable Verilog for the chosen decomposition." in
  Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE" ~doc)

let dot_arg =
  let doc = "Emit a Graphviz DOT graph of the operator netlist." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let testbench_arg =
  let doc = "Emit a self-checking Verilog testbench for the decomposition." in
  Arg.(value & opt (some string) None & info [ "testbench" ] ~docv:"FILE" ~doc)

let c_arg =
  let doc =
    "Emit self-checking C code for the decomposition (compile and run it \
     to validate the implementation); needs a $(b,--width) of at most 64."
  in
  Arg.(value & opt (some string) None & info [ "emit-c" ] ~docv:"FILE" ~doc)

let mcm_arg =
  let doc =
    "Lower constant multiplications to shared shift-add networks (multiple \
     constant multiplication) before reporting/emitting."
  in
  Arg.(value & flag & info [ "mcm" ] ~doc)

let power_arg =
  let doc = "Report the switching-activity power estimate." in
  Arg.(value & flag & info [ "power" ] ~doc)

let range_arg =
  let doc = "Report the bit-width range analysis of the intermediates." in
  Arg.(value & flag & info [ "range" ] ~doc)

let fsmd_arg =
  let doc =
    "Emit a sequential FSM-with-datapath Verilog implementation \
     (time-multiplexed onto one multiplier and one adder)."
  in
  Arg.(value & opt (some string) None & info [ "fsmd" ] ~docv:"FILE" ~doc)

let pipeline_arg =
  let doc = "Cut the netlist into pipeline stages for the given clock \
             period and report depth and register cost." in
  Arg.(value & opt (some float) None & info [ "pipeline" ] ~docv:"PERIOD" ~doc)

let show_program_arg =
  let doc = "Print the chosen decomposition as a straight-line program." in
  Arg.(value & flag & info [ "show-program" ] ~doc)

let compare_arg =
  let doc = "Run all four methods and print one report line each." in
  Arg.(value & flag & info [ "compare" ] ~doc)

let evaluate_arg =
  let doc =
    "Treat the input as a decomposition program (one 'name = polynomial' \
     definition per line; unreferenced names are outputs): report its cost \
     and compare it with what the proposed flow finds."
  in
  Arg.(value & flag & info [ "evaluate" ] ~doc)

let json_arg =
  let doc =
    "Print one JSON object (reports plus the engine trace: per-stage wall \
     time, candidate counts, cache statistics, budget state) instead of \
     the text report; the notes of written files go to stderr.  Does not \
     combine with $(b,--show-program), $(b,--analyze), $(b,--power), \
     $(b,--range), $(b,--pipeline), $(b,--benchmark) or $(b,--evaluate)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc = "Print the engine trace after the text report." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let check_arg =
  let doc =
    "Print the equivalence certificate of every report: 'verified' is a \
     proof (canonical forms over Z_2^m under --ring, exact identity \
     otherwise), 'refuted' comes with a concrete counterexample input.  \
     The exit code is 2 unless every requested certificate is 'verified'."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let lint_arg =
  let doc =
    "Run the static-analysis passes (well-formedness, width soundness, \
     redundancy) on the resulting decomposition and print their findings.  \
     Error-severity findings set exit code 3."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let analyze_arg =
  let doc =
    "Print two facts per cell of the emitted netlist: its pre-wrap \
     integer interval (what the width lint reads) and its constant value \
     mod 2^width, or top (what --simplify reads)."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let simplify_arg =
  let doc =
    "Run the certificate-guarded simplification pass on the synthesized \
     netlist (constant folding, identity removal, strength reduction, \
     dead-cell elimination; every rewrite is accepted only with a \
     'verified' equivalence certificate) and emit/report the simplified \
     netlist."
  in
  Arg.(value & flag & info [ "simplify" ] ~doc)

let benchmark_arg =
  let doc =
    "Run a built-in Table 14.3 benchmark ('all' for the whole suite) at \
     its published width instead of reading FILE; combines with --check \
     and --lint."
  in
  Arg.(
    value & opt (some string) None & info [ "benchmark" ] ~docv:"NAME" ~doc)

(* all flags fold into the one options record *)
let options_term =
  let make input method_name width use_ring objective jobs time_budget
      candidate_budget no_cache verilog_out dot_out testbench_out fsmd_out
      c_out use_mcm show_power show_range pipeline_period show_program
      compare_all evaluate json show_trace check lint analyze simplify
      benchmark =
    {
      input;
      method_name;
      width;
      use_ring;
      objective;
      jobs;
      time_budget;
      candidate_budget;
      no_cache;
      verilog_out;
      dot_out;
      testbench_out;
      fsmd_out;
      c_out;
      use_mcm;
      show_power;
      show_range;
      pipeline_period;
      show_program;
      compare_all;
      evaluate;
      json;
      show_trace;
      check;
      lint;
      analyze;
      simplify;
      benchmark;
    }
  in
  Term.(
    const make $ input_arg $ method_arg $ width_arg $ ring_arg $ objective_arg
    $ jobs_arg $ time_budget_arg $ candidate_budget_arg $ no_cache_arg
    $ verilog_arg $ dot_arg $ testbench_arg $ fsmd_arg $ c_arg $ mcm_arg
    $ power_arg $ range_arg $ pipeline_arg $ show_program_arg $ compare_arg
    $ evaluate_arg $ json_arg $ trace_arg $ check_arg $ lint_arg
    $ analyze_arg $ simplify_arg $ benchmark_arg)

let cmd =
  let doc = "area-driven synthesis of polynomial datapath systems" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads a system of multivariate polynomials over bit-vectors and \
         decomposes it for hardware implementation using the algebraic \
         techniques of Gopalakrishnan & Kalla (DATE 2009): canonical forms \
         over Z_2^m, square-free factorization, common coefficient \
         extraction, kernel/co-kernel cube extraction and algebraic \
         division, integrated with common sub-expression extraction.";
    ]
  in
  let term = Term.(const run_synthesis $ options_term) in
  Cmd.v (Cmd.info "polysynth" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval' cmd)
