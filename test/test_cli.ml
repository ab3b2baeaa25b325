(* The polysynth command line at its boundary: invalid options give a
   usage error (exit 1), never a result or an uncaught exception; the
   figures of the --range report and of the implementation summary; and
   adversarial systems (input names that shadow generated blocks, large
   coefficients) synthesize with every certificate verified. *)

(* the test runs in the build directory of [test/] *)
let polysynth = "../bin/polysynth.exe"

(* exit code of [polysynth args] reading [input] on stdin, output dropped *)
let run ~input args =
  Sys.command
    (Printf.sprintf "printf '%%s\\n' %s | %s %s - >/dev/null 2>&1"
       (Filename.quote input) (Filename.quote polysynth) args)

(* the exit code of [polysynth args] and its stdout lines starting with
   [prefix]; with [timeout], a run still going after that many seconds is
   stopped and exits 124 *)
let output ?timeout ~prefix args =
  let out = Filename.temp_file "polysynth" ".out" in
  let limit =
    Option.fold ~none:"" ~some:(Printf.sprintf "timeout %d ") timeout
  in
  let code =
    Sys.command
      (Printf.sprintf "%s%s %s > %s 2>/dev/null" limit
         (Filename.quote polysynth) args (Filename.quote out))
  in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  (code, List.filter (String.starts_with ~prefix) lines)

let lines_with ~prefix args = snd (output ~prefix args)

let test_width_below_one () =
  List.iter
    (fun args ->
      Alcotest.(check int) (args ^ " is a usage error") 1 (run ~input:"x*y+x" args))
    [ "--width=0"; "--width=-3"; "--ring --width=0"; "--compare --width=0" ];
  Alcotest.(check int) "--width=1 synthesizes" 0 (run ~input:"x*y+x" "--width=1")

let test_width_above_max () =
  List.iter
    (fun args ->
      Alcotest.(check int) (args ^ " is a usage error") 1 (run ~input:"x^3+x" args))
    [ "--width=1025"; "--width=100000"; "--ring --width=100000" ];
  Alcotest.(check int) "--width=1024 synthesizes" 0
    (run ~input:"x^3+x" "--width=1024")

let test_bad_values () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        (args ^ " is a usage error") 1
        (run ~input:"x*y+x+3*y" args))
    [
      "--pipeline=0";
      "--pipeline=-2";
      "--pipeline=nan";
      "--jobs=-3";
      "--time-budget=-1";
      "--time-budget=nan";
      "--candidate-budget=-5";
    ];
  List.iter
    (fun args ->
      Alcotest.(check int) (args ^ " synthesizes") 0 (run ~input:"x*y+x+3*y" args))
    [ "--pipeline=2"; "--jobs=0"; "--time-budget=0"; "--candidate-budget=0" ]

(* C emission is 64-bit: a wider datapath is a usage error, reported
   before any synthesis and without writing the file *)
let test_emit_c_width () =
  let file = Filename.temp_file "polysynth" ".c" in
  Sys.remove file;
  let emit width =
    run ~input:"x*y+x"
      (Printf.sprintf "--width %d --emit-c %s" width (Filename.quote file))
  in
  Alcotest.(check int) "--width 100 --emit-c is a usage error" 1 (emit 100);
  Alcotest.(check bool) "no file written" false (Sys.file_exists file);
  Alcotest.(check int) "--width 64 --emit-c writes C" 0 (emit 64);
  Alcotest.(check bool) "file written" true (Sys.file_exists file);
  Sys.remove file

(* a binding that reads its own name is a program error, not an input *)
let test_evaluate_self_reference () =
  Alcotest.(check int) "t = t + 1 is rejected" 1
    (run ~input:"t = t + 1\nP1 = t*x" "--evaluate");
  Alcotest.(check int) "t = x + 1 is costed" 0
    (run ~input:"t = x + 1\nP1 = t*x" "--evaluate")

(* a variable named like an output of its system would be both a port
   and a wire of the emitted code; a name past the last output is free *)
let test_variable_named_like_output () =
  Alcotest.(check int) "P1*x + P2 is rejected" 1 (run ~input:"P1*x + P2" "");
  Alcotest.(check int) "P2*x synthesizes" 0 (run ~input:"P2*x" "")

let range_line bits growth =
  Printf.sprintf
    "range analysis: widest intermediate needs %d bits (growth %d over the \
     16-bit datapath)"
    bits growth

(* the widest intermediate of the proposed decomposition of each example,
   with and without the ring; a bare 16-bit input needs 17 signed bits *)
let test_range_figures () =
  List.iter
    (fun (name, bits, growth) ->
      List.iter
        (fun ring ->
          let file = Printf.sprintf "../examples/data/%s.poly" name in
          Alcotest.(check (list string))
            (name ^ ring) [ range_line bits growth ]
            (lines_with ~prefix:"range analysis"
               (Printf.sprintf "--range%s %s" ring (Filename.quote file))))
        [ ""; " --ring" ])
    [
      ("cosine_wavelet", 62, 46);
      ("mixer", 37, 21);
      ("quadratic_filter", 38, 22);
      ("table_14_1", 53, 37);
      ("table_14_2", 84, 68);
    ];
  let x = Filename.temp_file "polysynth" ".poly" in
  Out_channel.with_open_text x (fun oc -> output_string oc "x\n");
  Alcotest.(check (list string))
    "x" [ range_line 17 1 ]
    (lines_with ~prefix:"range analysis" ("--range " ^ Filename.quote x));
  Sys.remove x

(* [--compare --check -j 1] on each of [files] in data/, exact and under
   [--ring], exits 0 with four verified certificates *)
let check_all_verified ?timeout files =
  List.iter
    (fun file ->
      List.iter
        (fun ring ->
          let args =
            Printf.sprintf "--compare --check -j 1%s data/%s" ring file
          in
          let code, certs = output ?timeout ~prefix:"certificate (" args in
          Alcotest.(check int) (args ^ " exit") 0 code;
          Alcotest.(check int) (args ^ " certificates") 4 (List.length certs);
          List.iter
            (fun l ->
              Alcotest.(check bool) l true
                (String.ends_with ~suffix:": verified" l))
            certs)
        [ ""; " --ring" ])
    files

(* Each system names a variable the way a generated block is named ([d1],
   [d2], [cse_t1]); the blocks must take other names, or a program reads
   the input where it meant the block (and one extraction never ended). *)
let test_block_names () =
  check_all_verified
    [
      "input_named_d1.poly";
      "inputs_named_d1_d2.poly";
      "input_named_cse_t1.poly";
      "input_named_cse_t1_kernel.poly";
    ]

(* Coefficients of 33 to 71 bits, a prime above the trial-division bound
   and highly composite ones: rational-root discovery must not take time
   that grows with a coefficient's value (each run takes milliseconds).
   The timeout turns such a regression into a failure, not a hang. *)
let test_large_coefficients () =
  check_all_verified ~timeout:20
    [
      "large_coeff_2_32.poly";
      "large_coeff_2_40.poly";
      "large_coeff_2_61.poly";
      "large_coeff_3_40.poly";
      "large_coeff_prime_2_61_1.poly";
      "large_coeff_2_70_3_40.poly";
      "large_coeff_semiprime.poly";
      "large_coeff_primorial.poly";
    ]

(* The power objective at 200 bits: each toggle count compares values
   wider than a native int, 30 bits at a time (bit by bit, this run took
   minutes).  The timeout turns such a regression into a failure. *)
let test_wide_power () =
  let args =
    "--objective power --width 200 --compare --check -j 1 \
     ../examples/data/table_14_2.poly"
  in
  let code, certs = output ~timeout:20 ~prefix:"certificate (" args in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check int) "certificates" 4 (List.length certs);
  List.iter
    (fun l ->
      Alcotest.(check bool) l true (String.ends_with ~suffix:": verified" l))
    certs

(* the implementation summary of one example: the pipelined form at a
   target period and the one-multiplier, one-adder FSMD *)
let test_implementation_summary () =
  let fsmd = Filename.temp_file "polysynth" ".v" in
  let code, lines =
    output ~prefix:""
      ("../examples/data/quadratic_filter.poly --pipeline 30 --fsmd "
      ^ Filename.quote fsmd)
  in
  Sys.remove fsmd;
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check (list string))
    "pipeline and fsmd lines"
    [
      "pipelining at period 30.0: 2 stage(s), 6 pipeline register(s), \
       achieved period 28.0";
      "fsmd: 12 states, 4 registers, 13 micro-ops (1 multiplier, 1 adder)";
    ]
    (List.filter
       (fun l ->
         String.starts_with ~prefix:"pipelining at" l
         || String.starts_with ~prefix:"fsmd:" l)
       lines)

(* --check exits 2 unless every printed certificate is verified, the
   baselines' included *)
let test_check_exit_code () =
  let code, certs =
    output ~prefix:"certificate ("
      "--compare --check -j 1 data/input_named_cse_t1.poly"
  in
  Alcotest.(check (list string))
    "certificates"
    [
      "certificate (direct): verified";
      "certificate (horner): verified";
      "certificate (factor+cse): verified";
      "certificate (proposed): verified";
    ]
    certs;
  Alcotest.(check int) "exit" 0 code

(* the cheapest input found whose certificate the engine leaves unknown:
   --check exits 2, and --lint keeps the 2.  Each run takes seconds, most
   of it building the representations; the timeout stops a hang *)
let test_unknown_exit_code () =
  let file = Filename.temp_file "polysynth" ".poly" in
  Out_channel.with_open_text file (fun oc -> output_string oc "(x+y)^17\n");
  List.iter
    (fun args ->
      let code, certs =
        output ~timeout:60 ~prefix:"certificate ("
          (args ^ " " ^ Filename.quote file)
      in
      Alcotest.(check int) (args ^ " exit") 2 code;
      Alcotest.(check bool) (args ^ " unknown") true
        (List.exists
           (String.starts_with
              ~prefix:
                "certificate (proposed): unknown: symbolic expansion \
                 estimated at 131072 terms")
           certs))
    [ "--check"; "--check --lint" ];
  Sys.remove file

(* --analyze prints, per cell, the pre-wrap interval the width lint reads
   and the constant Simplify reads: a [Constant c] cell's interval is
   [c, c] and its constant c mod 2^16.  Table 14.1 has no constant cell,
   so a system with a constant term runs too *)
let test_analyze_printout () =
  let module Z = Polysynth_zint.Zint in
  let constants = ref 0 in
  List.iter
    (fun args ->
      let code, lines = output ~prefix:"" (args ^ " --analyze") in
      Alcotest.(check int) (args ^ ": exit") 0 code;
      let rec after_header = function
        | [] -> Alcotest.fail (args ^ ": no analysis header")
        | "analysis (pre-wrap interval | constant mod 2^16):" :: cells ->
          cells
        | _ :: rest -> after_header rest
      in
      let cells =
        List.filter (String.starts_with ~prefix:"  c") (after_header lines)
      in
      Alcotest.(check bool) (args ^ ": cell lines") true (cells <> []);
      List.iter
        (fun line ->
          let lb = String.index line '[' and rb = String.index line ']' in
          let interval = String.sub line (lb + 1) (rb - lb - 1) in
          (* the operator column starts after the 8-character id column *)
          let op = String.trim (String.sub line 8 (lb - 8)) in
          let fact =
            String.trim (String.sub line (rb + 1) (String.length line - rb - 1))
          in
          (match String.split_on_char ',' interval with
           | [ lo; hi ] ->
             Alcotest.(check bool) (line ^ ": interval") true
               (Z.compare (Z.of_string lo) (Z.of_string (String.trim hi)) <= 0)
           | _ -> Alcotest.fail (line ^ ": no interval"));
          match Z.of_string op with
          | c ->
            incr constants;
            Alcotest.(check string) (line ^ ": interval of a constant")
              (Printf.sprintf "%s, %s" op op)
              interval;
            Alcotest.(check string) (line ^ ": constant")
              (Z.to_string (Z.erem_pow2 c 16))
              fact
          | exception _ -> ())
        cells)
    [
      "../examples/data/table_14_1.poly";
      "../examples/data/table_14_1.poly --ring";
      "data/large_coeff_2_70_3_40.poly";
      "data/large_coeff_2_70_3_40.poly --ring";
    ];
  Alcotest.(check bool) "constant cells seen" true (!constants > 0)

(* --json prints one JSON object and nothing else on stdout: the notes
   of written files go to stderr, and a report that prints text of its
   own is a usage error next to it *)
let test_json_alone () =
  let verilog = Filename.temp_file "polysynth" ".v"
  and fsmd = Filename.temp_file "polysynth" ".v" in
  let code, lines =
    output ~prefix:""
      (Printf.sprintf "../examples/data/table_14_1.poly --json --verilog %s \
                       --fsmd %s"
         (Filename.quote verilog) (Filename.quote fsmd))
  in
  Sys.remove verilog;
  Sys.remove fsmd;
  Alcotest.(check int) "exit" 0 code;
  (match lines with
   | [ line ] ->
     Alcotest.(check bool) "one JSON object" true
       (String.starts_with ~prefix:"{" line && String.ends_with ~suffix:"}" line)
   | _ -> Alcotest.failf "%d stdout lines, not one" (List.length lines));
  (* each input is one that the flag alone runs with exit 0 *)
  List.iter
    (fun (input, args) ->
      Alcotest.(check int) ("--json " ^ args ^ " is a usage error") 1
        (run ~input ("--json " ^ args)))
    [
      ("x*y+x", "--show-program");
      ("x*y+x", "--analyze");
      ("x*y+x", "--power");
      ("x*y+x", "--range");
      ("x*y+x", "--pipeline 30");
      ("x*y+x", "--benchmark MVCS");
      ("P1 = x*y + x", "--evaluate");
    ]

let () =
  Alcotest.run "cli"
    [
      ( "width",
        [
          Alcotest.test_case "below 1 is rejected" `Quick test_width_below_one;
          Alcotest.test_case "above 1024 is rejected" `Quick
            test_width_above_max;
        ] );
      ( "options",
        [
          Alcotest.test_case "invalid values are rejected" `Quick
            test_bad_values;
          Alcotest.test_case "emit-c above 64 bits is rejected" `Quick
            test_emit_c_width;
          Alcotest.test_case "evaluate rejects self-reference" `Quick
            test_evaluate_self_reference;
          Alcotest.test_case "json prints one object" `Quick test_json_alone;
          Alcotest.test_case "variable named like an output" `Quick
            test_variable_named_like_output;
        ] );
      ( "range", [ Alcotest.test_case "figures" `Quick test_range_figures ] );
      ( "check",
        [
          Alcotest.test_case "block names avoid the inputs" `Quick
            test_block_names;
          Alcotest.test_case "exit code" `Quick test_check_exit_code;
          Alcotest.test_case "large coefficients" `Quick
            test_large_coefficients;
          Alcotest.test_case "power objective at 200 bits" `Quick
            test_wide_power;
          Alcotest.test_case "unknown certificate exits 2" `Quick
            test_unknown_exit_code;
        ] );
      ( "implementation",
        [
          Alcotest.test_case "pipeline and fsmd summary" `Quick
            test_implementation_summary;
          Alcotest.test_case "analyze prints interval and constant" `Quick
            test_analyze_printout;
        ] );
    ]
