(* Span totals for the traced replay.

   A span wraps one call into a library layer and adds the call's wall
   time (monotonic clock), process CPU time and minor-heap allocation to
   the totals kept under the span's name.  Flow spans are the calls the
   engine itself makes for a request; probe spans re-run a single layer to
   split the work further.  Spans never nest, so a span's time is its self
   time. *)

type totals = {
  mutable calls : int;
  mutable ns : float;
  mutable flow_ns : float;  (** the part recorded by flow spans *)
  mutable words : float;
}

let table : (string, totals) Hashtbl.t = Hashtbl.create 64

(* CPU time of every flow span so far, comparable with the CPU time the
   engine takes for the same request. *)
let flow_cpu = ref 0.

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let flow_cpu_ns () = !flow_cpu

let record ~flow name f =
  let t =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None ->
      let t = { calls = 0; ns = 0.; flow_ns = 0.; words = 0. } in
      Hashtbl.replace table name t;
      t
  in
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () -. t0 in
  let cpu = (Sys.time () -. c0) *. 1e9 in
  t.words <- t.words +. (Gc.minor_words () -. w0);
  t.calls <- t.calls + 1;
  t.ns <- t.ns +. dt;
  if flow then begin
    t.flow_ns <- t.flow_ns +. dt;
    flow_cpu := !flow_cpu +. cpu
  end;
  r

let flow name f = record ~flow:true name f
let probe name f = record ~flow:false name f

let reset () =
  Hashtbl.reset table;
  flow_cpu := 0.

let all () =
  Hashtbl.fold (fun name t acc -> (name, t) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
