(* Global variable interning.

   Names are mapped to dense integer ids in first-intern order; alongside
   the id we maintain each id's alphabetical rank among all interned names
   so that the graded-lex monomial order can compare variables with two
   int-array loads instead of a string comparison.  The relative
   alphabetical order of two interned names never changes when a third is
   added, so data sorted by rank stays sorted forever; only the rank
   *values* shift, which is why readers take a fresh snapshot.

   Published snapshots are immutable: readers [Atomic.get] the current one
   and never lock, writers copy, extend and publish under [lock].  Interning
   is rare (variables number in the dozens) and lookups are the hot path, so
   copy-on-write is the right trade. *)

type snapshot = {
  ids : (string, int) Hashtbl.t;  (* never mutated once published *)
  names : string array;           (* id -> name *)
  ranks : int array;              (* id -> alphabetical rank *)
}

let empty =
  { ids = Hashtbl.create 64; names = [||]; ranks = [||] }

let state = Atomic.make empty
let lock = Mutex.create ()

let size () = Array.length (Atomic.get state).names

let find name = Hashtbl.find_opt (Atomic.get state).ids name

let intern name =
  if String.length name = 0 then invalid_arg "Symtab.intern: empty name";
  let s = Atomic.get state in
  match Hashtbl.find_opt s.ids name with
  | Some id -> id
  | None ->
    Mutex.protect lock (fun () ->
        (* re-check: another domain may have interned it meanwhile *)
        let s = Atomic.get state in
        match Hashtbl.find_opt s.ids name with
        | Some id -> id
        | None ->
          let id = Array.length s.names in
          let ids = Hashtbl.copy s.ids in
          Hashtbl.add ids name id;
          let names = Array.append s.names [| name |] in
          let below =
            Array.fold_left
              (fun acc n -> if String.compare n name < 0 then acc + 1 else acc)
              0 s.names
          in
          let ranks = Array.make (id + 1) below in
          Array.iteri
            (fun i r -> ranks.(i) <- (if r >= below then r + 1 else r))
            s.ranks;
          Atomic.set state { ids; names; ranks };
          id)

let name_of id =
  let s = Atomic.get state in
  if id < 0 || id >= Array.length s.names then
    invalid_arg "Symtab.name_of: unknown id";
  s.names.(id)

let ranks () = (Atomic.get state).ranks

