(* The polysynth command line at its boundary: invalid options give a
   usage error (exit 1), never a result or an uncaught exception. *)

(* the test runs in the build directory of [test/] *)
let polysynth = "../bin/polysynth.exe"

(* exit code of [polysynth args] reading [input] on stdin, output dropped *)
let run ~input args =
  Sys.command
    (Printf.sprintf "printf '%%s\\n' %s | %s %s - >/dev/null 2>&1"
       (Filename.quote input) (Filename.quote polysynth) args)

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

let () =
  Alcotest.run "cli"
    [
      ( "width",
        [
          Alcotest.test_case "below 1 is rejected" `Quick test_width_below_one;
          Alcotest.test_case "above 1024 is rejected" `Quick
            test_width_above_max;
        ] );
    ]
