(* The speed of the host, and of this process, at a moment.

   [ns ()] times a fixed amount of work of the kind the program does --
   allocation on the minor heap, pointer chasing through a persistent map,
   sorting a list -- built from the standard library only, so that no
   change to the library changes how long it takes.  It starts from a fully
   collected heap, and each round's data is dead before the next minor
   collection, so nothing is promoted: neither the live data the program
   keeps nor the garbage a request leaves changes its time.  Only the host,
   and where the process's minor heap landed, do.

   Identical processes ran up to 25 % apart on a shared host, and a
   calibration that allocates nothing did not follow them; this one does,
   so perfbench/run.py divides that slowdown out. *)

module Int_map = Map.Make (Int)

let rounds = 12
let entries = 1000
let sink = ref 0

(* About 100 k words: well inside the minor heap. *)
let round r =
  let m = ref Int_map.empty in
  for i = 0 to entries - 1 do
    m := Int_map.add (((i * 7919) + r) land 4095) i !m
  done;
  let l = Int_map.fold (fun k v acc -> (k lxor v, k) :: acc) !m [] in
  List.length (List.sort compare l) + Int_map.cardinal !m

let ns () =
  Gc.full_major ();
  let t0 = Sys.time () in
  for r = 1 to rounds do
    Gc.minor ();
    sink := !sink + round r
  done;
  (Sys.time () -. t0) *. 1e9
