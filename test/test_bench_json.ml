module BJ = Polysynth_report.Bench_json

let entries =
  [
    {
      BJ.name = "polysynth/kernel_extraction_t143";
      ns_per_run = 49846.2;
      cells_eliminated = None;
    };
    {
      BJ.name = "polysynth/integrated_t143";
      ns_per_run = 10669763.1;
      cells_eliminated = Some 3;
    };
  ]

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_roundtrip () =
  let doc = BJ.render ~mode:"quick" entries in
  Alcotest.(check bool) "schema tag present" true
    (contains ~needle:BJ.schema doc);
  let parsed = BJ.parse_exn doc in
  Alcotest.(check int) "entry count" (List.length entries) (List.length parsed);
  List.iter2
    (fun e p ->
      Alcotest.(check string) "name" e.BJ.name p.BJ.name;
      Alcotest.(check (float 1e-9)) "ns" e.BJ.ns_per_run p.BJ.ns_per_run;
      Alcotest.(check (option int))
        "cells_eliminated roundtrips" e.BJ.cells_eliminated
        p.BJ.cells_eliminated)
    entries parsed

let test_validate_required () =
  let doc = BJ.render ~mode:"quick" entries in
  (match
     BJ.validate ~required:[ "polysynth/integrated_t143" ] doc
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("required name present: " ^ e));
  match BJ.validate ~required:[ "polysynth/missing" ] doc with
  | Ok () -> Alcotest.fail "missing required name must be rejected"
  | Error _ -> ()

let test_validate_rejects_garbage () =
  let reject label text =
    match BJ.validate text with
    | Ok () -> Alcotest.fail (label ^ " must be rejected")
    | Error _ -> ()
  in
  reject "empty" "";
  reject "wrong schema" {|{"schema": "other/9", "mode": "quick", "results": []}|};
  reject "no results"
    {|{"schema": "polysynth-bench/1", "mode": "quick", "results": []}|};
  reject "non-positive ns"
    {|{"schema": "polysynth-bench/1", "mode": "quick",
       "results": [{"name": "a", "ns_per_run": 0.0}]}|};
  reject "negative cells_eliminated"
    {|{"schema": "polysynth-bench/1", "mode": "quick",
       "results": [{"name": "a", "ns_per_run": 1.0, "cells_eliminated": -2}]}|};
  reject "fractional cells_eliminated"
    {|{"schema": "polysynth-bench/1", "mode": "quick",
       "results": [{"name": "a", "ns_per_run": 1.0, "cells_eliminated": 1.5}]}|};
  match BJ.parse_exn "not json" with
  | exception BJ.Malformed _ -> ()
  | _ -> Alcotest.fail "parse_exn must raise Malformed on junk"

let test_committed_files () =
  (* the committed trajectory files must stay valid against the library *)
  let check_file path required =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      match BJ.validate ~required text with
      | Ok () -> ()
      | Error e -> Alcotest.fail (path ^ ": " ^ e)
    end
  in
  let required =
    [ "polysynth/kernel_extraction_t143"; "polysynth/integrated_t143" ]
  in
  (* tests run from _build/default/test; walk up to the source tree copies *)
  List.iter
    (fun dir ->
      check_file (Filename.concat dir "BENCH_PR3.json") required)
    [ "."; ".."; "../.."; "../../.." ]

let () =
  Alcotest.run "bench_json"
    [
      ( "schema",
        [
          Alcotest.test_case "render/parse roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "required names" `Quick test_validate_required;
          Alcotest.test_case "rejects malformed" `Quick
            test_validate_rejects_garbage;
          Alcotest.test_case "committed files validate" `Quick
            test_committed_files;
        ] );
    ]
