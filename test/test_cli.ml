(* The polysynth command line at its boundary: invalid options give a
   usage error (exit 1), never a result or an uncaught exception; the
   figures of the --range report and of the implementation summary; and
   adversarial systems (input names that shadow generated blocks, large
   coefficients) synthesize with every certificate verified; and the
   emitted C of hostile input names and of every example compiles and
   passes its self-check. *)

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

(* every reserved word of Verilog-2005 (IEEE 1364-2005, Annex B) is a
   usage error as a variable, since the emitted Verilog could not name the
   input *)
let reserved_words =
  [
    "always"; "and"; "assign"; "automatic"; "begin"; "buf"; "bufif0";
    "bufif1"; "case"; "casex"; "casez"; "cell"; "cmos"; "config";
    "deassign"; "default"; "defparam"; "design"; "disable"; "edge"; "else";
    "end"; "endcase"; "endconfig"; "endfunction"; "endgenerate";
    "endmodule"; "endprimitive"; "endspecify"; "endtable"; "endtask";
    "event"; "for"; "force"; "forever"; "fork"; "function"; "generate";
    "genvar"; "highz0"; "highz1"; "if"; "ifnone"; "incdir"; "include";
    "initial"; "inout"; "input"; "instance"; "integer"; "join"; "large";
    "liblist"; "library"; "localparam"; "macromodule"; "medium"; "module";
    "nand"; "negedge"; "nmos"; "nor"; "noshowcancelled"; "not"; "notif0";
    "notif1"; "or"; "output"; "parameter"; "pmos"; "posedge"; "primitive";
    "pull0"; "pull1"; "pulldown"; "pullup"; "pulsestyle_ondetect";
    "pulsestyle_onevent"; "rcmos"; "real"; "realtime"; "reg"; "release";
    "repeat"; "rnmos"; "rpmos"; "rtran"; "rtranif0"; "rtranif1";
    "scalared"; "showcancelled"; "signed"; "small"; "specify"; "specparam";
    "strong0"; "strong1"; "supply0"; "supply1"; "table"; "task"; "time";
    "tran"; "tranif0"; "tranif1"; "tri"; "tri0"; "tri1"; "triand"; "trior";
    "trireg"; "unsigned"; "use"; "uwire"; "vectored"; "wait"; "wand";
    "weak0"; "weak1"; "while"; "wire"; "wor"; "xnor"; "xor";
  ]

(* the exit code and stderr of [polysynth -] reading [input] on stdin *)
let exit_and_stderr input =
  let err = Filename.temp_file "polysynth" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "printf '%%s\\n' %s | %s - >/dev/null 2>%s"
         (Filename.quote input) (Filename.quote polysynth)
         (Filename.quote err))
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, msg)

let test_reserved_word_variable () =
  List.iter
    (fun word ->
      Alcotest.(check (pair int string))
        (word ^ " is a usage error")
        ( 1,
          Printf.sprintf
            "error: variable %s is named like a reserved word of Verilog\n"
            word )
        (exit_and_stderr (word ^ "*x + 1")))
    reserved_words

let have_gcc = Sys.command "which gcc > /dev/null 2>&1" = 0

(* [polysynth args --emit-c FILE], reading [input] on stdin when given,
   exits 0; gcc compiles FILE with -Wall -Werror in its default mode and
   under -std=c11 -pedantic-errors, and each program prints PASS *)
let check_emitted_c ?input label args =
  let dir = Filename.temp_dir "polysynth" "" in
  let c_file = Filename.concat dir "t.c" in
  let exe = Filename.concat dir "t" and out = Filename.concat dir "out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ c_file; exe; out ];
      Sys.rmdir dir)
    (fun () ->
      let args = args ^ " --emit-c " ^ Filename.quote c_file in
      let code =
        match input with
        | Some input -> run ~input args
        | None ->
          Sys.command
            (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote polysynth)
               args)
      in
      Alcotest.(check int) (label ^ " exits 0") 0 code;
      List.iter
        (fun flags ->
          Alcotest.(check int)
            (Printf.sprintf "gcc%s accepts the C of %s" flags label)
            0
            (Sys.command
               (Printf.sprintf "gcc%s -O1 -Wall -Werror -o %s %s" flags
                  (Filename.quote exe) (Filename.quote c_file)));
          Alcotest.(check (pair int (list string)))
            (Printf.sprintf "the C of %s under gcc%s passes" label flags)
            (0, [ "PASS" ])
            (let code =
               Sys.command (Filename.quote exe ^ " > " ^ Filename.quote out)
             in
             (code, In_channel.with_open_text out In_channel.input_lines)))
        [ ""; " -std=c11 -pedantic-errors" ])

(* the emitted C names each input and output by position, so a variable
   named like a C keyword or GNU extension, a macro of <stdint.h> or
   <stdio.h>, or an identifier of the emitted C itself synthesizes, and
   its C compiles and passes its self-check; skipped without gcc *)
let test_hostile_c_names () =
  if have_gcc then
    List.iter
      (fun name -> check_emitted_c ~input:(name ^ "*x + 1") name "")
      [
        "typeof"; "asm"; "__attribute__"; "__int128"; "_Float32"; "int";
        "EOF"; "NULL"; "INT8_MAX"; "UINT64_C"; "main"; "polysynth_dut";
        "word"; "POLYSYNTH_MASK"; "n0"; "in0"; "out0"; "errors";
      ]

(* the emitted C of every example system, exact and --ring, compiles and
   passes its self-check; skipped without gcc *)
let test_example_c () =
  if have_gcc then
    Array.iter
      (fun file ->
        if Filename.check_suffix file ".poly" then
          List.iter
            (fun ring ->
              let path = Filename.concat "../examples/data" file in
              check_emitted_c (file ^ ring) (Filename.quote path ^ ring))
            [ ""; " --ring" ])
      (Sys.readdir "../examples/data")

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

(* Adversarial inputs, read from a temp file, that once ran far past their
   budgets (seconds on a 2-core Xeon host): a 2000-digit coefficient under
   --ring, whose trial division divided the bignum bit by bit (38 s; c*x no
   longer trial-divides, c*x + 1 still does, by one-limb divisors); the
   --range and --lint of x^800 + x, whose width search built two powers of
   two per candidate width (14 s and 8 s); x^5000, whose perfect-power
   test searched for integer roots (2.3 s against a 0.5 s budget); and
   x^20000, whose Newton root divided by a multi-limb power bit by bit
   (17 s against a 1 s budget).  Each exits 0, or 2 for the unknown
   certificates of the powers, and never 124 (the timeout). *)
let test_adversarial_inputs () =
  let c = "1" ^ String.make 1998 '0' ^ "7" in
  List.iter
    (fun (input, args, expect) ->
      let file = Filename.temp_file "polysynth" ".poly" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc (input ^ "\n"));
          let code, _ =
            output ~timeout:20 ~prefix:"" (args ^ " " ^ Filename.quote file)
          in
          let name =
            if String.starts_with ~prefix:c input then
              "c" ^ String.sub input (String.length c)
                      (String.length input - String.length c)
            else input
          in
          Alcotest.(check int) (name ^ " " ^ args) expect code))
    [
      (c ^ "*x", "--ring --time-budget 1", 0);
      (c ^ "*x + 1", "--ring --time-budget 1", 0);
      ("x^800 + x", "-m direct --range", 0);
      ("x^800 + x", "-m direct --lint", 0);
      ("x^5000", "--time-budget 0.5", 2);
      ("x^20000", "--time-budget 1", 2);
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

(* a certificate the engine leaves unknown: --check exits 2, and --lint
   keeps the 2.  The product of 17 variables synthesizes in milliseconds,
   and its exact point set, {0, 1}^17, passes the certifier's budget *)
let test_unknown_exit_code () =
  let file = Filename.temp_file "polysynth" ".poly" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (String.concat "*" (List.init 17 (Printf.sprintf "x%d")) ^ "\n"));
      List.iter
        (fun args ->
          let code, certs =
            output ~timeout:60 ~prefix:"certificate ("
              (args ^ " " ^ Filename.quote file)
          in
          Alcotest.(check int) (args ^ " exit") 2 code;
          Alcotest.(check (list string)) (args ^ " unknown")
            [
              "certificate (proposed): unknown: the point set needs 8650752 \
               cell evaluations (131072 points x 1 modulus x 66 cells), past \
               the budget of 4000000";
            ]
            certs)
        [ "--check"; "--check --lint" ])

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
          Alcotest.test_case "reserved word as a variable" `Quick
            test_reserved_word_variable;
          Alcotest.test_case "hostile names in the emitted C" `Quick
            test_hostile_c_names;
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
          Alcotest.test_case "adversarial inputs finish in time" `Quick
            test_adversarial_inputs;
        ] );
      ( "implementation",
        [
          Alcotest.test_case "pipeline and fsmd summary" `Quick
            test_implementation_summary;
          Alcotest.test_case "analyze prints interval and constant" `Quick
            test_analyze_printout;
          Alcotest.test_case "emitted C of every example passes" `Quick
            test_example_c;
        ] );
    ]
