module Z = Polysynth_zint.Zint

type model = {
  mult_area : int -> int;
  cmult_area : int -> Z.t -> int;
  add_area : int -> int;
  neg_area : int -> int;
  mult_delay : int -> float;
  cmult_delay : int -> Z.t -> float;
  add_delay : int -> float;
  neg_delay : int -> float;
  fanout_delay : float;
      (** extra delay per additional load on a cell's output: the wire and
          input-capacitance cost of sharing a sub-expression widely *)
}

let csd_digits c =
  if Z.is_zero c then 0 else List.length (Mcm.csd_digits (Z.abs c))

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  if n <= 1 then 0 else go 0 1

let default =
  {
    (* array multiplier: ~m*m full-adder cells at ~6 gate equivalents *)
    mult_area = (fun m -> 6 * m * m);
    (* CSD shift-add network: (digits - 1) adders; shifts are wiring *)
    cmult_area =
      (fun m c ->
        let d = csd_digits c in
        if d <= 1 then 0 else (d - 1) * 7 * m);
    (* carry-lookahead adder *)
    add_area = (fun m -> 7 * m);
    (* two's-complement negation: inverters plus increment *)
    neg_area = (fun m -> 2 * m);
    (* array multiplier critical path ~ 2m full adders *)
    mult_delay = (fun m -> 0.8 *. float_of_int (2 * m));
    cmult_delay =
      (fun m c ->
        let d = csd_digits c in
        if d <= 1 then 0.0
        else
          float_of_int (log2_ceil d)
          *. (1.0 +. (0.35 *. float_of_int (log2_ceil m))));
    add_delay = (fun m -> 1.0 +. (0.35 *. float_of_int (log2_ceil m)));
    neg_delay = (fun m -> 0.5 +. (0.2 *. float_of_int (log2_ceil m)));
    fanout_delay = 0.7;
  }

let cell_area model m (op : Netlist.op) =
  match op with
  | Netlist.Input _ | Netlist.Constant _ | Netlist.Shl _ -> 0
  | Netlist.Negate -> model.neg_area m
  | Netlist.Add2 | Netlist.Sub2 -> model.add_area m
  | Netlist.Mult2 -> model.mult_area m
  | Netlist.Cmult c -> model.cmult_area m c

let cell_delay model m (op : Netlist.op) =
  match op with
  | Netlist.Input _ | Netlist.Constant _ | Netlist.Shl _ -> 0.0
  | Netlist.Negate -> model.neg_delay m
  | Netlist.Add2 | Netlist.Sub2 -> model.add_delay m
  | Netlist.Mult2 -> model.mult_delay m
  | Netlist.Cmult c -> model.cmult_delay m c

type report = {
  area : int;
  delay : float;
  num_mults : int;
  num_cmults : int;
  num_adds : int;
}

let total_operators r = r.num_mults + r.num_cmults + r.num_adds

let of_netlist ?(model = default) (n : Netlist.t) =
  let m = n.Netlist.width in
  let num_cells = Array.length n.Netlist.cells in
  let arrival = Array.make num_cells 0.0 in
  let fanout = Array.make num_cells 0 in
  Array.iter
    (fun cell ->
      List.iter
        (fun i -> fanout.(i) <- fanout.(i) + 1)
        cell.Netlist.fanin)
    n.Netlist.cells;
  let report = ref { area = 0; delay = 0.0; num_mults = 0; num_cmults = 0; num_adds = 0 } in
  Array.iter
    (fun cell ->
      let open Netlist in
      let fanin_arrival =
        List.fold_left
          (fun acc i -> Float.max acc arrival.(i))
          0.0 cell.fanin
      in
      let kind =
        match cell.op with
        | Input _ | Constant _ | Negate | Shl _ -> `Free
        | Add2 | Sub2 -> `Add
        | Mult2 -> `Mult
        | Cmult _ -> `Cmult
      in
      let load =
        model.fanout_delay *. float_of_int (Stdlib.max 0 (fanout.(cell.id) - 1))
      in
      arrival.(cell.id) <- fanin_arrival +. cell_delay model m cell.op +. load;
      let r = !report in
      report :=
        {
          area = r.area + cell_area model m cell.op;
          delay = Float.max r.delay arrival.(cell.id);
          num_mults = (r.num_mults + match kind with `Mult -> 1 | _ -> 0);
          num_cmults = (r.num_cmults + match kind with `Cmult -> 1 | _ -> 0);
          num_adds = (r.num_adds + match kind with `Add -> 1 | _ -> 0);
        })
    n.Netlist.cells;
  !report

let of_prog ?model ~width prog =
  of_netlist ?model (Netlist.of_prog ~width prog)

let pp_report fmt r =
  Format.fprintf fmt
    "area=%d delay=%.1f (mult=%d cmult=%d add=%d)"
    r.area r.delay r.num_mults r.num_cmults r.num_adds
