module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module E = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog
module N = Polysynth_hw.Netlist
module Cost = Polysynth_hw.Cost
module V = Polysynth_hw.Verilog

let prop name ?(count = 200) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let prog_of_strings specs =
  Prog.of_exprs (List.map (fun s -> E.of_poly (Parse.poly_exn s)) specs)

(* netlist ---------------------------------------------------------------------- *)

let test_netlist_shape () =
  let n = N.of_prog ~width:16 (prog_of_strings [ "3*x*y + 5" ]) in
  Alcotest.(check (list string)) "inputs" [ "x"; "y" ] (N.inputs n);
  Alcotest.(check int) "one output" 1 (List.length n.N.outputs);
  (* cells: x, y, x*y, cmult 3, const 5, add *)
  Alcotest.(check bool) "has a general mult" true
    (Array.exists (fun c -> c.N.op = N.Mult2) n.N.cells);
  Alcotest.(check bool) "has a cmult 3" true
    (Array.exists
       (fun c -> match c.N.op with N.Cmult k -> Z.to_int_exn k = 3 | _ -> false)
       n.N.cells)

let test_netlist_cmult_classification () =
  (* 6*x is a constant multiplier, x*y a general one *)
  let n = N.of_prog ~width:8 (prog_of_strings [ "6*x + x*y" ]) in
  let r = Cost.of_netlist n in
  Alcotest.(check int) "one general mult" 1 r.Cost.num_mults;
  Alcotest.(check int) "one cmult" 1 r.Cost.num_cmults;
  Alcotest.(check int) "one add" 1 r.Cost.num_adds

let test_netlist_eval_wraps () =
  (* 8-bit wrap-around: 200 + 100 = 44 mod 256 *)
  let n = N.of_prog ~width:8 (prog_of_strings [ "x + y" ]) in
  let env v = if String.equal v "x" then Z.of_int 200 else Z.of_int 100 in
  Alcotest.(check int) "wraps" 44 (Z.to_int_exn (List.assoc "P1" (N.eval n env)))

let test_netlist_eval_negative () =
  (* x - y with x < y wraps to 2^width - (y - x) *)
  let n = N.of_prog ~width:8 (prog_of_strings [ "x - y" ]) in
  let env v = if String.equal v "x" then Z.of_int 3 else Z.of_int 5 in
  Alcotest.(check int) "two's complement" 254
    (Z.to_int_exn (List.assoc "P1" (N.eval n env)))

(* Random netlists for the word form: inputs x, y, z, then cells whose
   fanin points backwards, over constants that are negative, above 2^62 or
   multiples of 2^m, and shifts by up to 130 (past the word size).  The
   word form must give every cell [cell_value]'s residue: [N.values] at
   width m for 2^m, the Zint rule reduced modulo the prime otherwise. *)
let word_moduli =
  [
    N.Pow2 1; N.Pow2 8; N.Pow2 16; N.Pow2 61; N.Pow2 62;
    N.Prime ((1 lsl 30) - 35); N.Prime 251;
  ]

let gen_word_case =
  let open QCheck.Gen in
  oneofl word_moduli >>= fun modulus ->
  let m = match modulus with N.Pow2 m -> m | N.Prime _ -> 30 in
  let constant =
    oneof
      [
        map Z.of_int (int_range (-1000) 1000);
        map (fun k -> Z.neg (Z.pow2 k)) (int_range 0 130);
        map (fun r -> Z.add (Z.pow2 62) (Z.of_int r)) (int_bound 1_000_000);
        map (fun k -> Z.sub (Z.pow2 k) Z.one) (int_range 62 130);
        map (fun c -> Z.mul (Z.of_int c) (Z.pow2 m)) (int_range (-7) 7);
        map Z.of_int int;
      ]
  in
  let cell id =
    let arg = int_bound (id - 1) in
    oneof
      [
        map (fun c -> (N.Constant c, [])) constant;
        map (fun a -> (N.Negate, [ a ])) arg;
        map2 (fun a b -> (N.Add2, [ a; b ])) arg arg;
        map2 (fun a b -> (N.Sub2, [ a; b ])) arg arg;
        map2 (fun a b -> (N.Mult2, [ a; b ])) arg arg;
        map2 (fun c a -> (N.Cmult c, [ a ])) constant arg;
        map2 (fun k a -> (N.Shl k, [ a ])) (int_range 0 130) arg;
      ]
  in
  int_range 1 12 >>= fun extra ->
  let rec cells id acc =
    if id = 3 + extra then return (List.rev acc)
    else
      cell id >>= fun (op, fanin) ->
      cells (id + 1) ({ N.id; op; fanin } :: acc)
  in
  let inputs =
    List.mapi
      (fun id v -> { N.id; op = N.Input v; fanin = [] })
      [ "x"; "y"; "z" ]
  in
  cells 3 (List.rev inputs) >>= fun cells ->
  let input =
    oneof [ int; int_range 0 1000; map (fun k -> 1 lsl k) (int_range 0 62) ]
  in
  triple input input input >>= fun env ->
  let cells = Array.of_list cells in
  return
    ( modulus,
      { N.cells; outputs = [ ("P1", Array.length cells - 1) ]; width = m },
      env )

let arb_word_case =
  QCheck.make gen_word_case ~print:(fun (modulus, (n : N.t), (x, y, z)) ->
      Printf.sprintf "%s, x=%d y=%d z=%d\n%s"
        (match modulus with
         | N.Pow2 m -> Printf.sprintf "2^%d" m
         | N.Prime p -> Printf.sprintf "prime %d" p)
        x y z
        (String.concat "\n"
           (Array.to_list
              (Array.map
                 (fun (c : N.cell) ->
                   Printf.sprintf "  c%d %s <- [%s]" c.N.id
                     (N.op_to_string c.N.op)
                     (String.concat "," (List.map string_of_int c.N.fanin)))
                 n.N.cells))))

let prop_words_match_values =
  prop "word form = Zint values" ~count:1000 arb_word_case
    (fun (modulus, n, (x, y, z)) ->
      let env v =
        Z.of_int (match v with "x" -> x | "y" -> y | _ -> z)
      in
      let expected =
        match modulus with
        | N.Pow2 _ -> N.values n env
        | N.Prime p ->
          let reduce z = snd (Z.ediv_rem z (Z.of_int p)) in
          N.interpret n Z.zero (fun op arg ->
              N.cell_value ~reduce op env arg)
      in
      (* slots in another order than the cells', with one unused *)
      let words = N.compile modulus ~inputs:[ "z"; "w"; "x"; "y" ] n in
      let out = Array.make (N.num_cells n) (-1) in
      N.eval_words words [| z; 0; x; y |] out;
      Array.for_all2 (fun w v -> Z.equal (Z.of_int w) v) out expected)

let test_netlist_shares_bindings () =
  let prog =
    Prog.
      {
        bindings = [ ("d", E.add [ E.var "x"; E.var "y" ]) ];
        outputs =
          [ ("A", E.pow (E.var "d") 2); ("B", E.mul [ E.var "d"; E.var "z" ]) ];
      }
  in
  let n = N.of_prog ~width:16 prog in
  let adds =
    Array.to_list n.N.cells
    |> List.filter (fun c -> match c.N.op with N.Add2 -> true | _ -> false)
  in
  Alcotest.(check int) "d built once" 1 (List.length adds)

(* cost ------------------------------------------------------------------------- *)

let test_csd_digits () =
  let check name n expect =
    Alcotest.(check int) name expect (Cost.csd_digits (Z.of_int n))
  in
  check "0" 0 0;
  check "1" 1 1;
  check "8" 8 1;
  check "3" 3 2;
  check "5" 5 2;
  check "7 = 8-1" 7 2;
  check "11" 11 3;
  check "-7" (-7) 2;
  check "255 = 256-1" 255 2

let test_cost_monotone_width () =
  let report w = Cost.of_prog ~width:w (prog_of_strings [ "x*y + 3*z" ]) in
  let r8 = report 8 and r16 = report 16 in
  Alcotest.(check bool) "area grows with width" true (r16.Cost.area > r8.Cost.area);
  Alcotest.(check bool) "delay grows with width" true
    (r16.Cost.delay > r8.Cost.delay)

let test_cost_mult_dominates () =
  let mult = Cost.of_prog ~width:16 (prog_of_strings [ "x*y" ]) in
  let add = Cost.of_prog ~width:16 (prog_of_strings [ "x + y" ]) in
  Alcotest.(check bool) "multiplier much larger" true
    (mult.Cost.area > 10 * add.Cost.area)

let test_cost_pow2_cmult_free () =
  let r = Cost.of_prog ~width:16 (prog_of_strings [ "8*x" ]) in
  Alcotest.(check int) "shift-only cmult has no area" 0 r.Cost.area

let test_sharing_reduces_area () =
  let unshared = Cost.of_prog ~width:16 (prog_of_strings [ "x*y + z"; "x*y + w" ]) in
  let single = Cost.of_prog ~width:16 (prog_of_strings [ "x*y + z" ]) in
  (* the second output reuses the x*y node: only one multiplier in total *)
  Alcotest.(check int) "one multiplier" 1 unshared.Cost.num_mults;
  Alcotest.(check bool) "cheaper than two copies" true
    (unshared.Cost.area < 2 * single.Cost.area)

let test_fanout_penalty () =
  (* y^2 feeding two consumers is slower than feeding one *)
  let narrow = Cost.of_prog ~width:16 (prog_of_strings [ "x*y^2" ]) in
  let wide = Cost.of_prog ~width:16 (prog_of_strings [ "x*y^2 + z*y^2 + w*y^2" ]) in
  Alcotest.(check bool) "fanout costs delay" true
    (wide.Cost.delay > narrow.Cost.delay)

(* verilog ---------------------------------------------------------------------- *)

let test_verilog_structure () =
  let src =
    V.emit ~module_name:"dut"
      (N.of_prog ~width:16 (prog_of_strings [ "3*x*y + 5" ]))
  in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length src
      && (String.sub src i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module dut (");
  Alcotest.(check bool) "input x" true (contains "input  signed [15:0] x");
  Alcotest.(check bool) "output P1" true (contains "output signed [15:0] P1");
  Alcotest.(check bool) "endmodule" true (contains "endmodule");
  Alcotest.(check bool) "constant mult" true (contains "16'd3 *")

let test_verilog_no_negative_literal () =
  (* constants are emitted reduced into [0, 2^w): no "16'd-5" artifacts *)
  let src = V.emit (N.of_prog ~width:8 (prog_of_strings [ "x*y - 5*z" ])) in
  Alcotest.(check bool) "no 'd-" true
    (not
       (List.exists
          (fun chunk ->
            String.length chunk > 0 && chunk.[0] = '-')
          (List.tl (String.split_on_char 'd' src))))

(* power ------------------------------------------------------------------------ *)

module Power = Polysynth_hw.Power
module Dot = Polysynth_hw.Dot
module TB = Polysynth_hw.Testbench

let test_power_deterministic () =
  let n = N.of_prog ~width:8 (prog_of_strings [ "x*y + 3*z" ]) in
  let a = Power.estimate n and b = Power.estimate n in
  Alcotest.(check (float 0.0)) "same netlist same power" a.Power.total
    b.Power.total;
  Alcotest.(check bool) "positive" true (a.Power.total > 0.0)

let test_power_scales_with_circuit () =
  let small = Power.estimate (N.of_prog ~width:8 (prog_of_strings [ "x + y" ])) in
  let big =
    Power.estimate
      (N.of_prog ~width:8 (prog_of_strings [ "x*y*x + y*x*y + 7*x*y" ]))
  in
  Alcotest.(check bool) "more logic, more power" true
    (big.Power.total > small.Power.total)

let test_power_leakage_tracks_area () =
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y" ]) in
  let r = Power.estimate n in
  let cost = Cost.of_netlist n in
  Alcotest.(check (float 1e-9)) "leakage = 1% of area"
    (0.01 *. float_of_int cost.Cost.area)
    r.Power.leakage

(* totals recorded with the bit-serial toggle count, and those of widths
   61, 62 and 63 with the Zint simulation that every width took before
   netlists were evaluated in machine words: 61 and 62 are the widest that
   take the word simulation, 63 and 64 keep the Zint one *)
let test_power_pinned_totals () =
  let prog =
    prog_of_strings [ "x*y*x + y*x*y + 7*x*y - 3*z"; "x - 5*y*z + 11" ]
  in
  List.iter
    (fun (width, expected) ->
      let r = Power.estimate (N.of_prog ~width prog) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "total at width %d" width)
        expected r.Power.total)
    [
      (8, 0x1.28af28f5c28f6p+13);
      (16, 0x1.23a41eb851eb8p+16);
      (61, 0x1.f1562d828f5c3p+21);
      (62, 0x1.0511345d70a3dp+22);
      (63, 0x1.11d41a3ae147bp+22);
      (64, 0x1.1f10d5999999ap+22);
    ]

(* the bit-by-bit count that the 30-bit chunks replaced, kept as the
   reference *)
let hamming_reference a b w =
  let rec go i acc =
    if i >= w then acc
    else
      let bit z = Z.to_int_exn (Z.erem_pow2 (Z.div z (Z.pow2 i)) 1) in
      go (i + 1) (acc + if bit a <> bit b then 1 else 0)
  in
  go 0 0

let prop_hamming_wide =
  let gen =
    QCheck.Gen.(
      int_range 63 300 >>= fun w ->
      let random =
        map
          (fun limbs ->
            Z.erem_pow2
              (List.fold_left
                 (fun acc l -> Z.add (Z.mul acc (Z.pow2 30)) (Z.of_int l))
                 Z.zero limbs)
              w)
          (list_repeat 11 (int_bound ((1 lsl 30) - 1)))
      in
      let value =
        oneof [ return Z.zero; return (Z.sub (Z.pow2 w) Z.one); random ]
      in
      oneof
        [
          map (fun a -> (w, a, a)) value;
          map2 (fun a b -> (w, a, b)) value value;
        ])
  in
  prop "wide hamming distance = bit by bit" ~count:100
    (QCheck.make gen ~print:(fun (w, a, b) ->
         Printf.sprintf "width %d: %s, %s" w (Z.to_string a) (Z.to_string b)))
    (fun (w, a, b) -> Power.hamming_distance a b w = hamming_reference a b w)

(* the native branch, whose popcount adds bits in parallel *)
let prop_hamming_narrow =
  let gen =
    QCheck.Gen.(
      int_range 1 62 >>= fun w ->
      let value =
        oneof
          [
            return 0;
            return ((1 lsl w) - 1);
            map (fun x -> x land ((1 lsl w) - 1)) int;
          ]
      in
      map2 (fun a b -> (w, Z.of_int a, Z.of_int b)) value value)
  in
  prop "narrow hamming distance = bit by bit" ~count:300
    (QCheck.make gen ~print:(fun (w, a, b) ->
         Printf.sprintf "width %d: %s, %s" w (Z.to_string a) (Z.to_string b)))
    (fun (w, a, b) -> Power.hamming_distance a b w = hamming_reference a b w)

let test_power_invalid_samples () =
  let n = N.of_prog ~width:8 (prog_of_strings [ "x" ]) in
  Alcotest.check_raises "samples < 1"
    (Invalid_argument "Power.estimate: samples < 1") (fun () ->
      ignore (Power.estimate ~samples:0 n))

(* dot / testbench ----------------------------------------------------------------- *)

let contains hay needle =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let test_dot_structure () =
  let n = N.of_prog ~width:8 (prog_of_strings [ "x*y + 3" ]) in
  let dot = Dot.of_netlist n in
  Alcotest.(check bool) "digraph" true (contains dot "digraph polysynth {");
  Alcotest.(check bool) "mult node" true (contains dot "shape=box");
  Alcotest.(check bool) "edges" true (contains dot "->");
  Alcotest.(check bool) "output label" true (contains dot "[P1]");
  Alcotest.(check bool) "closes" true (contains dot "}")

let test_testbench_structure () =
  let n = N.of_prog ~width:8 (prog_of_strings [ "x*y + 3*z" ]) in
  let tb = TB.emit ~module_name:"dut" ~vectors:4 n in
  Alcotest.(check bool) "tb module" true (contains tb "module dut_tb;");
  Alcotest.(check bool) "instantiates" true (contains tb "dut dut (");
  Alcotest.(check bool) "pass message" true (contains tb "PASS: all 4 vectors");
  Alcotest.(check bool) "finish" true (contains tb "$finish;");
  (* deterministic *)
  Alcotest.(check string) "deterministic" tb (TB.emit ~module_name:"dut" ~vectors:4 n)

let test_testbench_expected_values_correct () =
  (* every expected value embedded in the TB must match Netlist.eval; spot
     check by re-parsing one assignment block *)
  let n = N.of_prog ~width:8 (prog_of_strings [ "x + 1" ]) in
  let tb = TB.emit ~vectors:1 n in
  (* x = <v>; followed by expected <v>+1 mod 256 *)
  let lines = String.split_on_char '\n' tb in
  let x_line = List.find (fun l -> contains l "    x = 8'd") lines in
  let exp_line = List.find (fun l -> contains l "expected") lines in
  let int_after marker line =
    let rec find i =
      if i + String.length marker > String.length line then None
      else if String.sub line i (String.length marker) = marker then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
      let start = i + String.length marker in
      let rec stop j =
        if j < String.length line && line.[j] >= '0' && line.[j] <= '9' then
          stop (j + 1)
        else j
      in
      let j = stop start in
      if j > start then Some (int_of_string (String.sub line start (j - start)))
      else None
  in
  match int_after "8'd" x_line, int_after "expected " exp_line with
  | Some xv, Some expected ->
    Alcotest.(check int) "expected = x+1 mod 256" ((xv + 1) mod 256) expected
  | _, _ -> Alcotest.fail "could not parse testbench"

(* c emission --------------------------------------------------------------------- *)

module Cemit = Polysynth_hw.Cemit

let test_cemit_structure () =
  let n = N.of_prog ~width:16 (prog_of_strings [ "3*x*y + 5*z" ]) in
  let src = Cemit.emit ~func_name:"dut" n in
  Alcotest.(check bool) "function" true
    (contains src
       "void dut(word in0 /* x */, word in1 /* y */, word in2 /* z */, word \
        *out0 /* P1 */)");
  Alcotest.(check bool) "mask" true (contains src "& POLYSYNTH_MASK");
  Alcotest.(check bool) "no main without self_check" false (contains src "int main")

let test_cemit_width_limit () =
  let n = N.of_prog ~width:65 (prog_of_strings [ "x" ]) in
  Alcotest.check_raises "width > 64"
    (Invalid_argument "Cemit.emit: width exceeds 64 bits") (fun () ->
      ignore (Cemit.emit n))

(* the strongest end-to-end check in the suite: generate C with baked-in
   expected values, compile it with the system compiler, run it *)
let check_c_self_check label n =
  match Sys.command "which gcc > /dev/null 2>&1" with
  | 0 ->
    let src = Cemit.emit ~self_check:16 n in
    let dir = Filename.temp_file "polysynth" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let c_file = Filename.concat dir "t.c" in
    let exe = Filename.concat dir "t" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ c_file; exe ];
        Sys.rmdir dir)
      (fun () ->
        Out_channel.with_open_text c_file (fun oc ->
            Out_channel.output_string oc src);
        let compile =
          Sys.command
            (Printf.sprintf "gcc -O1 -Wall -Werror -o %s %s" exe c_file)
        in
        Alcotest.(check int) ("gcc accepts the " ^ label) 0 compile;
        let run = Sys.command (exe ^ " > /dev/null") in
        Alcotest.(check int) (label ^ " self-check passes") 0 run)
  | _ -> () (* no compiler available: skip silently *)

let test_cemit_compiles_and_passes () =
  let prog =
    prog_of_strings
      [ "13*x^2 + 26*x*y + 13*y^2 + 7*x - 7*y + 11"; "4*x*y^2 + 12*y^3" ]
  in
  List.iter
    (fun width ->
      check_c_self_check
        (Printf.sprintf "%d-bit output" width)
        (N.of_prog ~width prog))
    [ 8; 16; 31; 64 ]

(* mcm --------------------------------------------------------------------------- *)

module Mcm = Polysynth_hw.Mcm

let test_mcm_csd_digits () =
  let digits n =
    List.map (fun (s, k) -> s * (1 lsl k)) (Mcm.csd_digits (Z.of_int n))
  in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "digits of %d sum back" n)
        n
        (List.fold_left ( + ) 0 (digits n)))
    [ 1; 2; 3; 7; 12; 36; 45; 255; 1024; 12345 ];
  Alcotest.(check int) "7 = 8 - 1 uses 2 digits" 2
    (List.length (Mcm.csd_digits (Z.of_int 7)));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Mcm.csd_digits: non-positive constant") (fun () ->
      ignore (Mcm.csd_digits Z.zero))

let test_mcm_preserves_semantics () =
  let prog =
    prog_of_strings
      [ "36*x*y + 5*z"; "12*x*y - 20*z"; "4*x*y + 45*z + 7*w" ]
  in
  let n = N.of_prog ~width:16 prog in
  let opt = Mcm.optimize n in
  List.iter
    (fun (xv, yv, zv, wv) ->
      let env v =
        match v with
        | "x" -> Z.of_int xv
        | "y" -> Z.of_int yv
        | "z" -> Z.of_int zv
        | _ -> Z.of_int wv
      in
      let before = N.eval n env and after = N.eval opt env in
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool)
            (name ^ " unchanged")
            true
            (Z.equal (List.assoc name before) (List.assoc name after)))
        n.N.outputs)
    [ (0, 0, 0, 0); (1, 2, 3, 4); (100, 200, 300, 400); (65535, 1, 7, 9) ]

let test_mcm_removes_cmults () =
  let prog = prog_of_strings [ "36*x*y + 12*x*y*z + 4*x*y*w" ] in
  let n = N.of_prog ~width:16 prog in
  let opt = Mcm.optimize n in
  let cmults net =
    Array.to_list net.N.cells
    |> List.filter (fun c -> match c.N.op with N.Cmult _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "had cmults" true (cmults n > 0);
  Alcotest.(check int) "all lowered" 0 (cmults opt);
  Alcotest.(check bool) "has shifts" true
    (Array.exists (fun c -> match c.N.op with N.Shl _ -> true | _ -> false)
       opt.N.cells)

let test_mcm_shares_partials () =
  (* x multiplied by 3, 6, 12, 24: all share the partial (x + 2x);
     4 CSD networks of 1 adder each collapse to 1 adder + shifts *)
  let prog = prog_of_strings [ "3*x + 100*y"; "6*x + 101*y"; "12*x"; "24*x" ] in
  let n = N.of_prog ~width:16 prog in
  let opt = Mcm.optimize n in
  let adders net =
    Array.to_list net.N.cells
    |> List.filter (fun c ->
           match c.N.op with N.Add2 | N.Sub2 -> true | _ -> false)
    |> List.length
  in
  let before = Cost.of_netlist n and after = Cost.of_netlist opt in
  Alcotest.(check bool)
    (Printf.sprintf "area %d <= %d" after.Cost.area before.Cost.area)
    true
    (after.Cost.area <= before.Cost.area);
  (* the four x-multiples need one adder total (plus the output adds) *)
  Alcotest.(check bool)
    (Printf.sprintf "adders %d" (adders opt))
    true
    (adders opt <= adders n + 4)

let prop_mcm_equivalent =
  let gen_specs =
    QCheck.Gen.(
      map
        (fun (a, b, c) ->
          [ Printf.sprintf "%d*x^2 + %d*x*y + %d" a b c;
            Printf.sprintf "%d*y^2 - %d*x + %d" b c a ])
        (triple (int_range 0 500) (int_range 0 500) (int_range 0 500)))
  in
  prop "MCM rewrite is evaluation-equivalent" ~count:100
    (QCheck.make
       QCheck.Gen.(pair gen_specs (pair (int_range 0 255) (int_range 0 255)))
       ~print:(fun (specs, _) -> String.concat "; " specs))
    (fun (specs, (xv, yv)) ->
      let prog = prog_of_strings specs in
      let n = N.of_prog ~width:12 prog in
      let opt = Mcm.optimize n in
      let env v = if String.equal v "x" then Z.of_int xv else Z.of_int yv in
      let before = N.eval n env and after = N.eval opt env in
      List.for_all
        (fun (name, _) ->
          Z.equal (List.assoc name before) (List.assoc name after))
        n.N.outputs)

(* schedule ---------------------------------------------------------------------- *)

module Schedule = Polysynth_hw.Schedule

let unlimited = { Schedule.multipliers = max_int; adders = max_int }

let test_schedule_unlimited_matches_critical_path () =
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y + z*w + 3*q" ]) in
  let s = Schedule.list_schedule unlimited n in
  Alcotest.(check int) "latency = critical path"
    (Schedule.critical_path_latency n) s.Schedule.latency;
  Alcotest.(check bool) "valid" true (Schedule.is_valid unlimited n s)

let test_schedule_resource_constrained () =
  (* three independent multiplications on one multiplier serialize *)
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y"; "z*w"; "q*r" ]) in
  let one = { Schedule.multipliers = 1; adders = 1 } in
  let s1 = Schedule.list_schedule one n in
  let s3 = Schedule.list_schedule { one with Schedule.multipliers = 3 } n in
  Alcotest.(check bool) "valid constrained" true (Schedule.is_valid one n s1);
  Alcotest.(check int) "serialized: 3 mults x 2 cycles" 6 s1.Schedule.latency;
  Alcotest.(check int) "parallel: 2 cycles" 2 s3.Schedule.latency

let test_schedule_dependences () =
  (* x*y*z: second multiply waits for the first *)
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y*z" ]) in
  let s = Schedule.list_schedule unlimited n in
  Alcotest.(check int) "two dependent mults" 4 s.Schedule.latency

let test_schedule_cyclic_raises () =
  (* two adders reading each other never become ready: the scheduler's
     no-progress guard, and so the binder, give up instead of looping *)
  let cell id op fanin = { N.id; op; fanin } in
  let n =
    {
      N.cells = [| cell 0 N.Add2 [ 1; 1 ]; cell 1 N.Add2 [ 0; 0 ] |];
      outputs = [ ("o", 1) ];
      width = 8;
    }
  in
  let res = { Schedule.multipliers = 1; adders = 1 } in
  let t0 = Unix.gettimeofday () in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument msg ->
      String.starts_with ~prefix:"Schedule.list_schedule: no progress" msg
  in
  Alcotest.(check bool) "list_schedule raises" true
    (raises (fun () -> ignore (Schedule.list_schedule res n)));
  Alcotest.(check bool) "bind raises" true
    (raises (fun () -> ignore (Polysynth_hw.Bind.bind res n)));
  Alcotest.(check bool) "well under a second" true
    (Unix.gettimeofday () -. t0 < 0.1)

let test_schedule_invalid_resources () =
  let n = N.of_prog ~width:8 (prog_of_strings [ "x" ]) in
  Alcotest.check_raises "zero multipliers"
    (Invalid_argument "Schedule.list_schedule: need at least one unit per class")
    (fun () ->
      ignore (Schedule.list_schedule { Schedule.multipliers = 0; adders = 1 } n))

let test_schedule_monotone_in_resources () =
  let n =
    N.of_prog ~width:16
      (prog_of_strings [ "x*y + y*z + z*w + w*q"; "x*z*w + 5*q*y" ])
  in
  let lat m =
    (Schedule.list_schedule { Schedule.multipliers = m; adders = 2 } n)
      .Schedule.latency
  in
  Alcotest.(check bool) "more units never slower" true
    (lat 1 >= lat 2 && lat 2 >= lat 4)

(* stage ------------------------------------------------------------------------- *)

module Stage = Polysynth_hw.Stage

(* the staging checker: stages never decrease along an edge, and every
   stage's internal critical path is at most [achieved_period] *)
let stage_is_valid (n : N.t) (s : Stage.staging) =
  let cells = n.N.cells in
  let monotone =
    Array.for_all
      (fun cell ->
        List.for_all
          (fun src -> s.Stage.stage_of.(src) <= s.Stage.stage_of.(cell.N.id))
          cell.N.fanin)
      cells
  in
  let arrival = Array.make (Array.length cells) 0.0 in
  let within_period =
    Array.for_all
      (fun cell ->
        let i = cell.N.id in
        let a =
          List.fold_left
            (fun acc src ->
              if s.Stage.stage_of.(src) < s.Stage.stage_of.(i) then acc
              else Stdlib.max acc arrival.(src))
            0.0 cell.N.fanin
          +. Cost.cell_delay Cost.default n.N.width cell.N.op
        in
        arrival.(i) <- a;
        a <= s.Stage.achieved_period +. 1e-9)
      cells
  in
  monotone && within_period

let test_stage_single_when_loose () =
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y + z*w" ]) in
  let s = Stage.cut ~target_period:1000.0 n in
  Alcotest.(check int) "one stage" 1 s.Stage.num_stages;
  Alcotest.(check int) "no registers" 0 s.Stage.pipeline_registers;
  Alcotest.(check bool) "valid" true (stage_is_valid n s)

let test_stage_splits_when_tight () =
  (* the balanced product tree (x*y)*(z*w) has two multiplier levels of
     ~25.6 units each at 16 bits; a 30-unit budget splits them *)
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y*z*w" ]) in
  let s = Stage.cut ~target_period:30.0 n in
  Alcotest.(check bool)
    (Printf.sprintf "multiple stages (%d)" s.Stage.num_stages)
    true (s.Stage.num_stages >= 2);
  Alcotest.(check bool) "registers inserted" true (s.Stage.pipeline_registers > 0);
  Alcotest.(check bool) "valid" true (stage_is_valid n s);
  Alcotest.(check bool) "meets period" true (s.Stage.achieved_period <= 30.0)

let test_stage_monotone_in_target () =
  let n =
    N.of_prog ~width:16 (prog_of_strings [ "13*x^2*y + 7*x*y^2 - 5*x*y + 3" ])
  in
  let stages t = (Stage.cut ~target_period:t n).Stage.num_stages in
  Alcotest.(check bool) "tighter target, more stages" true
    (stages 28.0 >= stages 60.0 && stages 60.0 >= stages 500.0)

let test_stage_slow_single_operator () =
  (* a single 16-bit multiplier is slower than a 10-unit period: it stays
     unsplit and the achieved period reports the violation *)
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y" ]) in
  let s = Stage.cut ~target_period:10.0 n in
  Alcotest.(check bool) "achieved > target" true (s.Stage.achieved_period > 10.0);
  Alcotest.(check bool) "valid" true (stage_is_valid n s)

let test_stage_invalid_target () =
  let n = N.of_prog ~width:8 (prog_of_strings [ "x" ]) in
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stage.cut: non-positive period") (fun () ->
      ignore (Stage.cut ~target_period:0.0 n))

(* bind -------------------------------------------------------------------------- *)

module Bind = Polysynth_hw.Bind
module Fsmd = Polysynth_hw.Fsmd

let test_bind_unit_counts () =
  (* 3 independent multiplies scheduled on 2 multipliers need exactly 2 *)
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y"; "z*w"; "q*r" ]) in
  let res = { Schedule.multipliers = 2; adders = 2 } in
  let b = Bind.bind res n in
  Alcotest.(check bool) "at most 2 multipliers" true (b.Bind.num_multipliers <= 2);
  Alcotest.(check bool) "consistent" true (Bind.is_consistent b)

let test_bind_registers_on_serialization () =
  (* with one multiplier, early results wait for the final adder chain:
     registers are needed *)
  let n = N.of_prog ~width:16 (prog_of_strings [ "x*y + z*w + q*r" ]) in
  let res = { Schedule.multipliers = 1; adders = 1 } in
  let b = Bind.bind res n in
  Alcotest.(check bool) "some registers" true (b.Bind.num_registers >= 1);
  Alcotest.(check bool) "consistent" true (Bind.is_consistent b)

let test_bind_mux_inputs_grow_with_sharing () =
  let narrow = N.of_prog ~width:16 (prog_of_strings [ "x*y" ]) in
  let wide =
    N.of_prog ~width:16 (prog_of_strings [ "x*y + z*w + q*r + a*b" ])
  in
  let res = { Schedule.multipliers = 1; adders = 1 } in
  let sb = Bind.bind res in
  Alcotest.(check bool) "more ops on one unit, more mux inputs" true
    ((sb wide).Bind.mux_inputs > (sb narrow).Bind.mux_inputs)

let prop_bind_consistent =
  prop "binding is always consistent" ~count:80
    (QCheck.make
       QCheck.Gen.(
         triple
           (map
              (fun (a, b, c) ->
                [ Printf.sprintf "%d*x^2 + %d*x*y + %d" a b c;
                  Printf.sprintf "%d*y^2 - %d*x + %d" b c a ])
              (triple (int_range 0 20) (int_range 0 20) (int_range 0 20)))
           (int_range 1 3) (int_range 1 3))
       ~print:(fun (specs, m, a) ->
         Printf.sprintf "%s | %d %d" (String.concat ";" specs) m a))
    (fun (specs, m, a) ->
      let n = N.of_prog ~width:16 (prog_of_strings specs) in
      let res = { Schedule.multipliers = m; adders = a } in
      let b = Bind.bind res n in
      Bind.is_consistent b
      && b.Bind.num_multipliers <= m
      && b.Bind.num_adders <= a)

(* m = a*b is launched at step 0 but read at step 4, through the shift
   s = m << 1, by o = add4 + s: the shift is wiring, so the read counts at
   o's step and m holds its register over steps 1..4 *)
let shift_read_netlist () =
  let cell id op fanin = { N.id; op; fanin } in
  {
    N.cells =
      [|
        cell 0 (N.Input "a") []; cell 1 (N.Input "b") [];
        cell 2 N.Mult2 [ 0; 1 ]; cell 3 (N.Shl 1) [ 2 ];
        cell 4 (N.Input "c") []; cell 5 (N.Input "d") [];
        cell 6 N.Add2 [ 4; 5 ]; cell 7 (N.Input "e") [];
        cell 8 N.Add2 [ 6; 7 ]; cell 9 (N.Input "f") [];
        cell 10 N.Add2 [ 8; 9 ]; cell 11 (N.Input "g") [];
        cell 12 N.Add2 [ 10; 11 ]; cell 13 N.Add2 [ 12; 3 ];
      |];
    outputs = [ ("o", 13) ];
    width = 16;
  }

(* the binding of the netlist on 1 multiplier and 1 adder *)
let shift_read_binding () =
  let n = shift_read_netlist () in
  Bind.bind { Schedule.multipliers = 1; adders = 1 } n

let test_bind_read_through_shift () =
  let b = shift_read_binding () in
  let s = b.Bind.schedule in
  Alcotest.(check int) "m starts at 0" 0 s.Schedule.start_step.(2);
  Alcotest.(check int) "o starts at 4" 4 s.Schedule.start_step.(13);
  (* m holds register 0; the adder chain shares register 1, and o takes
     register 0 after m's last read *)
  Alcotest.(check int) "registers" 2 b.Bind.num_registers;
  Alcotest.(check int) "m has a register" 0 b.Bind.register_of.(2);
  Alcotest.(check bool) "consistent" true (Bind.is_consistent b)

(* hand-edited bindings of the same netlist, which is_consistent must
   reject.  Cell 12 (an add at step 3) lands in its register at the end of
   step 3, before o reads m from register 0 at step 4: writing cell 12
   into register 0 clobbers m *)
let test_bind_rejects_shared_at_last_read () =
  let b = shift_read_binding () in
  let register_of = Array.copy b.Bind.register_of in
  register_of.(12) <- 0;
  Alcotest.(check bool) "inconsistent" false
    (Bind.is_consistent { b with Bind.register_of })

(* every unit result, m among them, needs a register *)
let test_bind_rejects_missing_register () =
  let b = shift_read_binding () in
  let register_of = Array.copy b.Bind.register_of in
  register_of.(2) <- -1;
  Alcotest.(check bool) "inconsistent" false
    (Bind.is_consistent { b with Bind.register_of; num_registers = 0 })

(* random netlists with shifts and negations among the unit operators:
   each spec entry picks an operator and two earlier cells *)
let gen_netlist_spec =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 14)
         (quad (int_range 0 5) (int_range 0 1000) (int_range 0 1000)
            (int_range 0 3)))
      (int_range 1 3) (int_range 1 3))

let netlist_of_spec spec =
  let inputs = [ "x"; "y"; "z" ] in
  let k = List.length inputs in
  let cells =
    List.mapi (fun i v -> { N.id = i; op = N.Input v; fanin = [] }) inputs
    @ List.mapi
        (fun j (code, a, b, c) ->
          let id = k + j in
          let a = a mod id and b = b mod id in
          let op, fanin =
            match code with
            | 0 -> (N.Mult2, [ a; b ])
            | 1 -> (N.Add2, [ a; b ])
            | 2 -> (N.Sub2, [ a; b ])
            | 3 -> (N.Cmult (Z.of_int (c + 3)), [ a ])
            | 4 -> (N.Shl (c + 1), [ a ])
            | _ -> (N.Negate, [ a ])
          in
          { N.id; op; fanin })
        spec
  in
  let num = List.length cells in
  let outputs =
    ("o_last", num - 1)
    :: List.filteri (fun j _ -> j mod 3 = 0)
         (List.init (num - k) (fun j -> (Printf.sprintf "o%d" j, k + j)))
  in
  { N.cells = Array.of_list cells; outputs; width = 16 }

let prop_bind_registers_cover_reads =
  prop "registers cover every late read" ~count:200
    (QCheck.make gen_netlist_spec ~print:(fun (spec, m, a) ->
         Printf.sprintf "m=%d a=%d [%s]" m a
           (String.concat "; "
              (List.map
                 (fun (o, x, y, c) -> Printf.sprintf "%d,%d,%d,%d" o x y c)
                 spec))))
    (fun (spec, m, a) ->
      let n = netlist_of_spec spec in
      let cells = n.N.cells in
      let num = Array.length cells in
      let b = Bind.bind { Schedule.multipliers = m; adders = a } n in
      let s = b.Bind.schedule in
      let is_unit i =
        match cells.(i).N.op with
        | N.Mult2 | N.Add2 | N.Sub2 | N.Cmult _ -> true
        | N.Input _ | N.Constant _ | N.Shl _ | N.Negate -> false
      in
      (* the last read of cell i: the start step of each unit consumer,
         and through a free consumer the free cell's own last read *)
      let rec last_read i =
        let from_outputs =
          if List.exists (fun (_, o) -> o = i) n.N.outputs then
            s.Schedule.latency
          else -1
        in
        Array.fold_left
          (fun acc (c : N.cell) ->
            if not (List.mem i c.N.fanin) then acc
            else if is_unit c.N.id then max acc s.Schedule.start_step.(c.N.id)
            else max acc (last_read c.N.id))
          from_outputs cells
      in
      (* a unit result is written at the end of its launch step and held
         to its last read, for at least one step *)
      let first i = s.Schedule.start_step.(i) + 1 in
      let last i = max (last_read i) (first i) in
      let units = List.filter is_unit (List.init num Fun.id) in
      let covered = List.for_all (fun i -> b.Bind.register_of.(i) >= 0) units in
      let disjoint =
        List.for_all
          (fun i ->
            List.for_all
              (fun j ->
                i >= j
                || b.Bind.register_of.(i) <> b.Bind.register_of.(j)
                || last i < first j
                || last j < first i)
              units)
          units
      in
      let live_at t =
        List.length (List.filter (fun i -> first i <= t && t <= last i) units)
      in
      let peak =
        List.fold_left max 0 (List.init (s.Schedule.latency + 1) live_at)
      in
      (* the FSMD steers operands through the shifts and negations *)
      let inputs = N.draw_inputs (Polysynth_zint.Xorshift.make 1) n () in
      let env v = List.assoc v inputs in
      (* left-edge is optimal on intervals: exactly the peak *)
      covered && disjoint
      && b.Bind.num_registers = peak
      && List.for_all2
           (fun (_, v) (_, w) -> Z.equal v w)
           (Fsmd.simulate b env) (N.eval n env))

(* fsmd -------------------------------------------------------------------------- *)

let fsmd_matches netlist res =
  let b = Bind.bind res netlist in
  let checks =
    [ (0, 0); (1, 2); (17, 200); (255, 255); (123, 45) ]
  in
  List.for_all
    (fun (xv, yv) ->
      let env v = if String.equal v "x" then Z.of_int xv else Z.of_int yv in
      let reference = N.eval netlist env in
      let sequential = Fsmd.simulate b env in
      List.for_all
        (fun (name, _) ->
          Z.equal (List.assoc name reference) (List.assoc name sequential))
        netlist.N.outputs)
    checks

let test_fsmd_matches_reference () =
  let netlist =
    N.of_prog ~width:16
      (prog_of_strings
         [ "13*x^2 + 26*x*y + 13*y^2 + 7*x - 7*y + 11"; "4*x*y^2 + 12*y^3" ])
  in
  List.iter
    (fun (m, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "matches at %d mult / %d add" m a)
        true
        (fsmd_matches netlist { Schedule.multipliers = m; adders = a }))
    [ (1, 1); (1, 2); (2, 2); (4, 4) ]

let test_fsmd_register_sharing () =
  let netlist = N.of_prog ~width:16 (prog_of_strings [ "x*y + x + y" ]) in
  let b = Bind.bind { Schedule.multipliers = 1; adders = 1 } netlist in
  let ops = Array.fold_left (fun acc l -> acc + List.length l) 0 (Fsmd.states b) in
  Alcotest.(check bool) "registers allocated" true (b.Bind.num_registers >= 1);
  Alcotest.(check bool) "fewer registers than ops" true
    (b.Bind.num_registers <= ops)

let test_fsmd_verilog_structure () =
  let netlist = N.of_prog ~width:8 (prog_of_strings [ "3*x*y + 5" ]) in
  let b = Bind.bind { Schedule.multipliers = 1; adders = 1 } netlist in
  let v = Fsmd.to_verilog ~module_name:"seq" b in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains v needle))
    [ "module seq ("; "input  wire clk"; "case (state)"; "done_o";
      "regs"; "endmodule" ]

let prop_fsmd_equivalent =
  prop "FSMD simulation = combinational reference" ~count:60
    (QCheck.make
       QCheck.Gen.(
         triple
           (map
              (fun (a, b, c) ->
                [ Printf.sprintf "%d*x^2 + %d*x*y + %d*y" a b c;
                  Printf.sprintf "%d*y^2 - %d*x + %d" b c a ])
              (triple (int_range 0 30) (int_range 0 30) (int_range 0 30)))
           (pair (int_range 1 3) (int_range 1 3))
           (pair (int_range 0 4095) (int_range 0 4095)))
       ~print:(fun (specs, _, _) -> String.concat ";" specs))
    (fun (specs, (m, a), (xv, yv)) ->
      let netlist = N.of_prog ~width:12 (prog_of_strings specs) in
      let b = Bind.bind { Schedule.multipliers = m; adders = a } netlist in
      let env v = if String.equal v "x" then Z.of_int xv else Z.of_int yv in
      let reference = N.eval netlist env in
      let sequential = Fsmd.simulate b env in
      List.for_all
        (fun (name, _) ->
          Z.equal (List.assoc name reference) (List.assoc name sequential))
        netlist.N.outputs)

(* emitted names ----------------------------------------------------------------- *)

(* the identifiers a Verilog text declares: the name after each
   input/output/wire/reg/integer keyword, its type and range skipped, and
   the name of each module instance (the token before its "(." port
   list) *)
let verilog_declarations text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | ("input" | "output" | "wire" | "reg" | "integer") :: rest -> (
        let rest =
          List.filter
            (fun t ->
              t <> "" && t <> "signed" && t <> "wire"
              && not (String.starts_with ~prefix:"[" t))
            rest
        in
        match rest with
        | name :: _ ->
          Some
            (String.concat ""
               (String.split_on_char ','
                  (List.hd (String.split_on_char ';' name))))
        | [] -> None)
      | _ :: instance :: ports :: _ when String.starts_with ~prefix:"(." ports
        ->
        Some instance
      | _ -> None)
    (String.split_on_char '\n' text)

(* inputs named like the emitters' own wires, registers, state and error
   counter, clock, reset, done signal, instance, word type, mask and
   module names: each emitted text still declares every identifier once,
   and the C compiles and checks itself.  A module name may equal a port
   name, since Verilog-2005 keeps module definitions in a name space of
   their own (IEEE 1364-2005, 4.11); no simulator checks that here. *)
let test_names_avoid_ports () =
  let n =
    N.of_prog ~width:16
      (prog_of_strings
         [
           "n1*x + regs*state + errors + 3";
           "clk*x + rst*done_o + word*dut + POLYSYNTH_MASK";
           "polysynth*x + polysynth_dut*polysynth_tb";
         ])
  in
  check_c_self_check "inputs named like every generated name" n;
  List.iter
    (fun (label, text) ->
      let declared = verilog_declarations text in
      Alcotest.(check (list string))
        (label ^ " declares each identifier once")
        (List.sort_uniq String.compare declared)
        (List.sort String.compare declared))
    [
      ("verilog", V.emit n);
      ("fsmd", Fsmd.to_verilog (Bind.bind { Schedule.multipliers = 1; adders = 1 } n));
      ("testbench", TB.emit n);
    ]

(* properties -------------------------------------------------------------------- *)

let gen_poly_strings =
  QCheck.Gen.(
    map
      (fun (a, b, c) ->
        [ Printf.sprintf "%d*x^2 + %d*x*y + %d" a b c;
          Printf.sprintf "%d*y^2 - %d*x + %d" b c a ])
      (triple (int_range 0 20) (int_range 0 20) (int_range 0 20)))

let arb_system_env =
  QCheck.make
    QCheck.Gen.(pair gen_poly_strings (pair (int_range 0 255) (int_range 0 255)))
    ~print:(fun (polys, _) -> String.concat "; " polys)

let prop_netlist_eval_matches_poly =
  prop "netlist eval = polynomial eval mod 2^w" arb_system_env
    (fun (specs, (xv, yv)) ->
      let polys = List.map Parse.poly_exn specs in
      let prog = Prog.of_exprs (List.map E.of_poly polys) in
      let n = N.of_prog ~width:8 prog in
      let env v = if String.equal v "x" then Z.of_int xv else Z.of_int yv in
      let results = N.eval n env in
      List.for_all2
        (fun (i : int) q ->
          let expected = Z.erem_pow2 (P.eval env q) 8 in
          Z.equal expected
            (List.assoc (Printf.sprintf "P%d" i) results))
        [ 1; 2 ] polys)

let prop_schedule_valid =
  prop "list schedule is always valid" ~count:100
    (QCheck.make
       QCheck.Gen.(triple gen_poly_strings (int_range 1 3) (int_range 1 3))
       ~print:(fun (specs, m, a) ->
         Printf.sprintf "%s | m=%d a=%d" (String.concat "; " specs) m a))
    (fun (specs, m, a) ->
      let prog = Prog.of_exprs (List.map (fun s -> E.of_poly (Parse.poly_exn s)) specs) in
      let n = N.of_prog ~width:16 prog in
      let res = { Schedule.multipliers = m; adders = a } in
      let s = Schedule.list_schedule res n in
      Schedule.is_valid res n s
      && s.Schedule.latency >= Schedule.critical_path_latency n)

let prop_cost_nonnegative =
  prop "cost report is sane" arb_system_env (fun (specs, _) ->
      let prog = Prog.of_exprs (List.map (fun s -> E.of_poly (Parse.poly_exn s)) specs) in
      let r = Cost.of_prog ~width:16 prog in
      r.Cost.area >= 0 && r.Cost.delay >= 0.0
      && Cost.total_operators r
         >= r.Cost.num_mults)

let () =
  Alcotest.run "hw"
    [
      ( "netlist",
        [
          Alcotest.test_case "shape" `Quick test_netlist_shape;
          Alcotest.test_case "cmult classification" `Quick
            test_netlist_cmult_classification;
          Alcotest.test_case "eval wraps" `Quick test_netlist_eval_wraps;
          Alcotest.test_case "eval negative" `Quick test_netlist_eval_negative;
          prop_words_match_values;
          Alcotest.test_case "shares bindings" `Quick test_netlist_shares_bindings;
        ] );
      ( "cost",
        [
          Alcotest.test_case "csd digits" `Quick test_csd_digits;
          Alcotest.test_case "monotone in width" `Quick test_cost_monotone_width;
          Alcotest.test_case "mult dominates add" `Quick test_cost_mult_dominates;
          Alcotest.test_case "pow2 cmult free" `Quick test_cost_pow2_cmult_free;
          Alcotest.test_case "sharing reduces area" `Quick test_sharing_reduces_area;
          Alcotest.test_case "fanout penalty" `Quick test_fanout_penalty;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "negative constant" `Quick
            test_verilog_no_negative_literal;
        ] );
      ( "power",
        [
          Alcotest.test_case "deterministic" `Quick test_power_deterministic;
          Alcotest.test_case "scales with circuit" `Quick
            test_power_scales_with_circuit;
          Alcotest.test_case "leakage tracks area" `Quick
            test_power_leakage_tracks_area;
          Alcotest.test_case "invalid samples" `Quick test_power_invalid_samples;
          Alcotest.test_case "pinned totals" `Quick test_power_pinned_totals;
          prop_hamming_wide;
          prop_hamming_narrow;
        ] );
      ( "dot/testbench",
        [
          Alcotest.test_case "dot structure" `Quick test_dot_structure;
          Alcotest.test_case "testbench structure" `Quick test_testbench_structure;
          Alcotest.test_case "testbench expected values" `Quick
            test_testbench_expected_values_correct;
        ] );
      ( "mcm",
        [
          Alcotest.test_case "csd digits" `Quick test_mcm_csd_digits;
          Alcotest.test_case "preserves semantics" `Quick
            test_mcm_preserves_semantics;
          Alcotest.test_case "removes cmults" `Quick test_mcm_removes_cmults;
          Alcotest.test_case "shares partials" `Quick test_mcm_shares_partials;
          prop_mcm_equivalent;
        ] );
      ( "cemit",
        [
          Alcotest.test_case "structure" `Quick test_cemit_structure;
          Alcotest.test_case "width limit" `Quick test_cemit_width_limit;
          Alcotest.test_case "compiles and passes" `Quick
            test_cemit_compiles_and_passes;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "unlimited = critical path" `Quick
            test_schedule_unlimited_matches_critical_path;
          Alcotest.test_case "resource constrained" `Quick
            test_schedule_resource_constrained;
          Alcotest.test_case "dependences" `Quick test_schedule_dependences;
          Alcotest.test_case "cyclic netlist raises" `Quick
            test_schedule_cyclic_raises;
          Alcotest.test_case "invalid resources" `Quick
            test_schedule_invalid_resources;
          Alcotest.test_case "monotone in resources" `Quick
            test_schedule_monotone_in_resources;
        ] );
      ( "stage",
        [
          Alcotest.test_case "single stage when loose" `Quick
            test_stage_single_when_loose;
          Alcotest.test_case "splits when tight" `Quick
            test_stage_splits_when_tight;
          Alcotest.test_case "monotone in target" `Quick
            test_stage_monotone_in_target;
          Alcotest.test_case "slow single operator" `Quick
            test_stage_slow_single_operator;
          Alcotest.test_case "invalid target" `Quick test_stage_invalid_target;
        ] );
      ( "fsmd",
        [
          Alcotest.test_case "matches reference" `Quick
            test_fsmd_matches_reference;
          Alcotest.test_case "register sharing" `Quick test_fsmd_register_sharing;
          Alcotest.test_case "verilog structure" `Quick
            test_fsmd_verilog_structure;
          prop_fsmd_equivalent;
          Alcotest.test_case "emitted names avoid the ports" `Quick
            test_names_avoid_ports;
        ] );
      ( "bind",
        [
          Alcotest.test_case "unit counts" `Quick test_bind_unit_counts;
          Alcotest.test_case "registers on serialization" `Quick
            test_bind_registers_on_serialization;
          Alcotest.test_case "mux inputs" `Quick
            test_bind_mux_inputs_grow_with_sharing;
          Alcotest.test_case "read through shift" `Quick
            test_bind_read_through_shift;
          Alcotest.test_case "shared register at finish = last read" `Quick
            test_bind_rejects_shared_at_last_read;
          Alcotest.test_case "missing register" `Quick
            test_bind_rejects_missing_register;
          prop_bind_consistent;
          prop_bind_registers_cover_reads;
        ] );
      ( "properties",
        [
          prop_netlist_eval_matches_poly;
          prop_schedule_valid;
          prop_cost_nonnegative;
        ] );
    ]
