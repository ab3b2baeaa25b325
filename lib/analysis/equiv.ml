module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Netlist = Polysynth_hw.Netlist
module Canonical = Polysynth_finite_ring.Canonical
module Rng = Polysynth_zint.Xorshift

type counterexample = {
  output : string;
  point : (string * Z.t) list;
  expected : Z.t;
  got : Z.t option;
}

type cert = Verified | Refuted of counterexample | Unknown of string

let cert_label = function
  | Verified -> "verified"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let point_to_string point =
  match point with
  | [] -> "the empty assignment"
  | _ ->
    String.concat ", "
      (List.map (fun (v, x) -> Printf.sprintf "%s=%s" v (Z.to_string x)) point)

let cert_to_string = function
  | Verified -> "verified"
  | Refuted ce ->
    Printf.sprintf "refuted: at %s, %s expects %s but the program computes %s"
      (point_to_string ce.point) ce.output (Z.to_string ce.expected)
      (match ce.got with Some g -> Z.to_string g | None -> "nothing (missing)")
  | Unknown reason -> "unknown: " ^ reason

let cert_to_json = function
  | Verified -> {|{"status":"verified"}|}
  | Refuted ce ->
    Printf.sprintf
      {|{"status":"refuted","counterexample":{"output":%s,"point":{%s},"expected":%s,"got":%s}}|}
      (Diag.json_string ce.output)
      (String.concat ","
         (List.map
            (fun (v, x) ->
              Printf.sprintf "%s:%s" (Diag.json_string v)
                (Diag.json_string (Z.to_string x)))
            ce.point))
      (Diag.json_string (Z.to_string ce.expected))
      (match ce.got with
       | Some g -> Diag.json_string (Z.to_string g)
       | None -> "null")
  | Unknown reason ->
    Printf.sprintf {|{"status":"unknown","reason":%s}|}
      (Diag.json_string reason)

(* ---- deterministic sampling ------------------------------------------- *)

let rand_bits rng bits =
  (* uniform in [0, 2^bits), assembled 16 bits at a time *)
  let rec go acc remaining =
    if remaining <= 0 then acc
    else
      let chunk = Stdlib.min remaining 16 in
      go
        (Z.add (Z.mul (Z.pow2 chunk) acc) (Z.of_int (Rng.next rng (1 lsl chunk))))
        (remaining - chunk)
  in
  go Z.zero bits

(* ---- shared helpers --------------------------------------------------- *)

let output_name i = Printf.sprintf "P%d" (i + 1)

let system_vars polys prog =
  let bound = List.map fst prog.Prog.bindings in
  let prog_vars =
    List.concat_map (fun (_, e) -> Expr.vars e)
      (prog.Prog.bindings @ prog.Prog.outputs)
    |> List.filter (fun v -> not (List.mem v bound))
  in
  List.sort_uniq String.compare (List.concat_map Poly.vars polys @ prog_vars)

let env_of point v =
  match List.assoc_opt v point with Some x -> x | None -> Z.zero

(* Upper bound on the number of terms each output would expand to,
   saturating well below [max_int]: the guard that keeps the symbolic
   decision from blowing up on adversarial inputs. *)
let expansion_estimate prog =
  let cap = 1_000_000_000 in
  let sat_add a b = if a >= cap - b then cap else a + b in
  let sat_mul a b =
    if a = 0 || b = 0 then 0 else if a >= cap / b then cap else a * b
  in
  let sat_pow a k =
    let rec go acc k = if k <= 0 then acc else go (sat_mul acc a) (k - 1) in
    go 1 k
  in
  let binding_terms = Hashtbl.create 16 in
  let rec terms e =
    match (e : Expr.t) with
    | Expr.Const _ -> 1
    | Expr.Var v ->
      (match Hashtbl.find_opt binding_terms v with Some n -> n | None -> 1)
    | Expr.Neg e -> terms e
    | Expr.Add es -> List.fold_left (fun acc e -> sat_add acc (terms e)) 0 es
    | Expr.Mul es -> List.fold_left (fun acc e -> sat_mul acc (terms e)) 1 es
    | Expr.Pow (e, k) -> sat_pow (terms e) k
  in
  List.iter
    (fun (name, e) -> Hashtbl.replace binding_terms name (terms e))
    prog.Prog.bindings;
  List.fold_left
    (fun acc (_, e) -> sat_add acc (terms e))
    0 prog.Prog.outputs

(* ---- random pre-filter ------------------------------------------------ *)

let sample_point ?ctx rng vars =
  List.map
    (fun v ->
      let bits = match ctx with Some ctx -> Canonical.var_width ctx v | None -> 16 in
      (v, rand_bits rng bits))
    vars

let prefilter ?ctx ~samples polys prog =
  let vars = system_vars polys prog in
  let rng = Rng.make 0x5eed in
  let reduce z =
    match ctx with
    | Some ctx -> Z.erem_pow2 z (Canonical.out_width ctx)
    | None -> z
  in
  let rec round s =
    if s >= samples then None
    else begin
      let point = sample_point ?ctx rng vars in
      let env = env_of point in
      let produced = Prog.eval prog env in
      let rec check i = function
        | [] -> None
        | p :: rest ->
          let name = output_name i in
          let expected =
            match ctx with
            | Some ctx -> Canonical.eval_mod ctx p env
            | None -> Poly.eval env p
          in
          (match List.assoc_opt name produced with
           | None -> Some { output = name; point; expected; got = None }
           | Some got ->
             let got = reduce got in
             if Z.equal got expected then check (i + 1) rest
             else Some { output = name; point; expected; got = Some got })
      in
      match check 0 polys with
      | Some ce -> Some ce
      | None -> round (s + 1)
    end
  in
  round 0

(* ---- constructive witnesses ------------------------------------------- *)

(* Over Z_2^m the canonical form of the difference yields a guaranteed
   counterexample: take a falling term [c * Y_k1(x_1)...Y_kd(x_d)] of
   minimal total degree and evaluate at [x_i = k_i].  Every other term has
   some exponent above [k_i] there (a lower or incomparable term would
   contradict minimality), so it vanishes, and [c * prod k_i!] is nonzero
   modulo [2^m] because [0 < c < 2^m / gcd(2^m, prod k_i!)]. *)
let ring_witness ctx p q =
  let d = Poly.sub p q in
  let f = Canonical.canonicalize ctx d in
  match Canonical.falling_terms f with
  | [] -> None (* equal as functions after all *)
  | first :: rest ->
    let _, witness_mono =
      List.fold_left
        (fun ((best_deg, _) as best) (_, m) ->
          let deg = Monomial.degree m in
          if deg < best_deg then (deg, m) else best)
        (Monomial.degree (snd first), snd first)
        rest
    in
    let point =
      List.map (fun (v, k) -> (v, Z.of_int k)) (Monomial.to_list witness_mono)
    in
    let expected = Canonical.eval_mod ctx p (env_of point) in
    Some (point, expected)

(* Over Z a nonzero difference polynomial is refuted by sampling: by
   Schwartz-Zippel a random point from a range much larger than the degree
   is a witness with overwhelming probability. *)
let exact_witness rng d =
  let vars = Poly.vars d in
  let rec go attempts =
    if attempts >= 64 then None
    else
      let point = List.map (fun v -> (v, rand_bits rng 20)) vars in
      if Z.is_zero (Poly.eval (env_of point) d) then go (attempts + 1)
      else Some point
  in
  (* the origin first: off-by-constant faults are refuted at zero *)
  if not (Z.is_zero (Poly.eval (fun _ -> Z.zero) d)) then Some []
  else go 0

(* ---- the decision procedure ------------------------------------------- *)

let certify ?ctx ?(samples = 8) ?(size_budget = 100_000) polys prog =
  match prefilter ?ctx ~samples polys prog with
  | Some ce -> Refuted ce
  | None ->
    let estimate = expansion_estimate prog in
    if estimate > size_budget then
      Unknown
        (Printf.sprintf
           "symbolic expansion estimated at %s terms exceeds the budget of \
            %d; %d random samples passed"
           (if estimate >= 1_000_000_000 then ">= 10^9"
            else string_of_int estimate)
           size_budget samples)
    else begin
      let produced = Prog.to_polys prog in
      let prog_at point name =
        List.assoc_opt name (Prog.eval prog (env_of point))
      in
      let rng = Rng.make 0x817 in
      let rec check i = function
        | [] -> Verified
        | p :: rest ->
          let name = output_name i in
          (match List.assoc_opt name produced with
           | None ->
             let expected =
               match ctx with
               | Some ctx -> Canonical.eval_mod ctx p (fun _ -> Z.zero)
               | None -> Poly.eval (fun _ -> Z.zero) p
             in
             Refuted { output = name; point = []; expected; got = None }
           | Some q ->
             let equal =
               match ctx with
               | Some ctx -> Canonical.equal_functions ctx p q
               | None -> Poly.equal p q
             in
             if equal then check (i + 1) rest
             else
               let witness =
                 match ctx with
                 | Some ctx -> (
                     match ring_witness ctx p q with
                     | Some (point, expected) ->
                       let m = Canonical.out_width ctx in
                       let got =
                         Option.map
                           (fun g -> Z.erem_pow2 g m)
                           (prog_at point name)
                       in
                       Some (point, expected, got)
                     | None -> None)
                 | None -> (
                     match exact_witness rng (Poly.sub p q) with
                     | Some point ->
                       Some
                         ( point,
                           Poly.eval (env_of point) p,
                           prog_at point name )
                     | None -> None)
               in
               (match witness with
                | Some (point, expected, got) ->
                  Refuted { output = name; point; expected; got }
                | None ->
                  Unknown
                    (Printf.sprintf
                       "%s differs symbolically but no witness point was \
                        constructed"
                       name)))
      in
      check 0 polys
    end

(* ---- netlist spot checks ---------------------------------------------- *)

let spot_check_netlist ?(seed = 1) ?(samples = 5) polys (n : Netlist.t) =
  let named = List.mapi (fun i p -> (output_name i, p)) polys in
  let width = n.Netlist.width in
  let vars =
    List.sort_uniq String.compare
      (Netlist.inputs n @ List.concat_map (fun (_, p) -> Poly.vars p) named)
  in
  let rng = Rng.make seed in
  let rec round s =
    if s >= samples then Ok ()
    else begin
      let point = List.map (fun v -> (v, rand_bits rng width)) vars in
      let env = env_of point in
      let results = Netlist.eval n env in
      let rec check = function
        | [] -> round (s + 1)
        | (name, p) :: rest ->
          let expected = Z.erem_pow2 (Poly.eval env p) width in
          (match List.assoc_opt name results with
           | None -> Error { output = name; point; expected; got = None }
           | Some got ->
             if Z.equal got expected then check rest
             else Error { output = name; point; expected; got = Some got })
      in
      check named
    end
  in
  round 0
