(* Differential fuzzer: random polynomial systems through every synthesis
   method, cross-checked at six levels —
   1. certificates: the engine's own equivalence certifier must return
      Verified for every method (a Refuted certificate prints its
      counterexample input; Unknown is also a failure here, since these
      systems are far below the point budget);
   2. bit-accurate: the operator netlist and its MCM lowering agree with
      direct polynomial evaluation mod 2^width on random input vectors
      (Equiv.spot_check_netlist);
   3. lint: the proposed decomposition carries no error-severity
      static-analysis finding, the scheduler/binder cross-check of
      level 4's binding included;
   4. rewrites: the synthesized netlist, scheduled and bound on a random
      budget, runs as an FSMD that computes what the netlist does on a
      random input vector (drawn from a generator of its own, like
      level 6's);
   5. simplify: the certificate-guarded simplification pass keeps the
      netlist Verified against the source system, and never proposes a
      rewrite the certificate refutes (a Refuted rejection would mean the
      proposer itself is unsound, not just imprecise);
   6. abstract interpretation: on the netlist and its MCM lowering, every
      cell's concrete value (Netlist.values) lies in its constant fact
      (Absint.constants), and its value before wrap-around in its
      interval (Absint.intervals), on random input vectors.  The vectors
      come from a generator of their own, so this level leaves the draws
      of the other levels unchanged.

   Usage:  fuzz [ITERATIONS] [SEED]      (defaults: 200, 1)
   Exit code 0 = all checks passed. *)

module Z = Polysynth_zint.Zint
module Netlist = Polysynth_hw.Netlist
module Mcm = Polysynth_hw.Mcm
module Schedule = Polysynth_hw.Schedule
module Bind = Polysynth_hw.Bind
module Fsmd = Polysynth_hw.Fsmd
module Engine = Polysynth_core.Engine
module Rand = Polysynth_workloads.Random_system
module Equiv = Polysynth_analysis.Equiv
module Diag = Polysynth_analysis.Diag
module Suite = Polysynth_analysis.Suite
module Simplify = Polysynth_analysis.Simplify
module Absint = Polysynth_analysis.Absint
module Domains = Polysynth_analysis.Domains
module Prog = Polysynth_expr.Prog
module Rng = Polysynth_zint.Xorshift

let () =
  let iterations =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 200
  in
  let seed0 = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1 in
  let rng = Rng.make seed0 in
  let failures = ref 0 in
  let improvements = ref [] in
  for i = 1 to iterations do
    let seed = seed0 + (i * 7919) in
    let cfg =
      {
        Rand.default_config with
        Rand.num_polys = 1 + Rng.next rng 3;
        num_vars = 2 + Rng.next rng 2;
        max_terms = 2 + Rng.next rng 5;
        max_degree = 1 + Rng.next rng 3;
        sharing = Rng.next rng 2 = 0;
      }
    in
    let system = Rand.generate ~seed cfg in
    let width = [| 8; 12; 16 |].(Rng.next rng 3) in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          incr failures;
          Printf.printf "FAIL (seed %d): %s\n%!" seed msg)
        fmt
    in
    let reports, _trace =
      Engine.compare_methods (Engine.Config.default ~width) system
    in
    (* 1. every method's engine certificate is a proof of exactness *)
    List.iter
      (fun r ->
        match r.Engine.cert with
        | Equiv.Verified -> ()
        | Equiv.Refuted ce ->
          fail "%s refuted: %s"
            (Engine.method_label r.Engine.method_name)
            (Equiv.cert_to_string (Equiv.Refuted ce))
        | Equiv.Unknown reason ->
          fail "%s not certified: %s"
            (Engine.method_label r.Engine.method_name)
            reason)
      reports;
    (* 2. bit-accurate netlist checks on random vectors *)
    let proposed = List.nth reports 3 in
    let n = proposed.Engine.netlist in
    let opt = Mcm.optimize n in
    let spot label netlist =
      match
        Equiv.spot_check_netlist ~seed:(seed lxor Rng.next rng 1024) system
          netlist
      with
      | Ok () -> ()
      | Error ce ->
        fail "%s mismatch: %s" label (Equiv.cert_to_string (Equiv.Refuted ce))
    in
    spot "netlist" n;
    spot "MCM" opt;
    (* the guarded simplify pass, checked by 5 and linted by 3 *)
    let o = Simplify.run ~system:(Prog.name_outputs system) n in
    (* 4's binding, on a random budget, is the one 3 re-checks *)
    let b =
      Bind.bind
        {
          Schedule.multipliers = 1 + Rng.next rng 3;
          adders = 1 + Rng.next rng 3;
        }
        n
    in
    (* 3. no error-severity lint finding on the proposed decomposition *)
    let lint = Suite.analyze proposed.Engine.prog n o b in
    List.iter
      (fun (d : Diag.t) ->
        if d.Diag.severity = Diag.Error then
          fail "lint: %s" (Diag.to_string d))
      (Suite.diags lint);
    (* 4. the FSMD agrees with the netlist *)
    let inputs = Netlist.draw_inputs (Rng.make seed) n () in
    let env v = List.assoc v inputs in
    if
      not
        (List.for_all2
           (fun (_, v) (_, w) -> Z.equal v w)
           (Fsmd.simulate b env) (Netlist.eval n env))
    then fail "FSMD simulation differs from the netlist";
    (* 5. the guarded simplify pass preserves semantics *)
    (match Equiv.certify_netlist system o.Simplify.netlist with
     | Equiv.Verified -> ()
     | c ->
       fail "simplified netlist not verified: %s" (Equiv.cert_to_string c));
    List.iter
      (fun ((rw : Simplify.rewrite), (c : Equiv.cert)) ->
        match c with
        | Equiv.Refuted _ ->
          fail "simplify proposed an unsound rewrite: %s"
            (Simplify.describe rw)
        | _ -> ())
      o.Simplify.rejected;
    (* 6. every concrete cell value lies in its constant fact, and its
       value before wrap-around in its interval; and the word form
       computes the same values as [Netlist.values] *)
    let vectors = Rng.make seed in
    let contains label netlist =
      let consts = Absint.constants netlist in
      let ranges = Absint.intervals netlist in
      let draw = Netlist.draw_inputs vectors netlist in
      let names = Netlist.inputs netlist in
      (* fuzz widths are at most 16 bits *)
      let words =
        Netlist.compile (Netlist.Pow2 netlist.Netlist.width) ~inputs:names
          netlist
      in
      let word_values = Array.make (Netlist.num_cells netlist) 0 in
      for _ = 1 to 5 do
        let inputs = draw () in
        let env v = List.assoc v inputs in
        let exact =
          Netlist.interpret netlist Z.zero (fun op arg ->
              Netlist.cell_value ~reduce:Fun.id op env arg)
        in
        let values = Netlist.values netlist env in
        Netlist.eval_words words
          (Array.of_list (List.map (fun v -> Z.to_int_exn (env v)) names))
          word_values;
        Array.iteri
          (fun i v ->
            if not (Z.equal (Z.of_int word_values.(i)) v) then
              fail "%s: cell %d = %d in words, %s in Zint" label i
                word_values.(i) (Z.to_string v))
          values;
        Array.iteri
          (fun i v ->
            (match Domains.Const.as_const consts.(i) with
             | Some c when not (Z.equal c v) ->
               fail "%s: cell %d = %s outside %s" label i (Z.to_string v)
                 (Z.to_string c)
             | _ -> ());
            let lo, hi = ranges.(i) in
            let x = exact.(i) in
            if Z.compare x lo < 0 || Z.compare hi x < 0 then
              fail "%s: cell %d = %s before wrap-around, outside [%s, %s]"
                label i (Z.to_string x) (Z.to_string lo) (Z.to_string hi))
          values
      done
    in
    contains "absint netlist" n;
    contains "absint MCM" opt;
    (* stats *)
    let base = List.nth reports 2 in
    if base.Engine.cost.Polysynth_hw.Cost.area > 0 then
      improvements :=
        (100.
        *. (1.
           -. float_of_int proposed.Engine.cost.Polysynth_hw.Cost.area
              /. float_of_int base.Engine.cost.Polysynth_hw.Cost.area))
        :: !improvements
  done;
  let avg =
    match !improvements with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  Printf.printf
    "fuzz: %d iterations, %d failures; avg area improvement over factor+cse: \
     %.1f%%\n"
    iterations !failures avg;
  exit (if !failures = 0 then 0 else 1)
