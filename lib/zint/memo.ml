module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'a t = {
    capacity : int;
    lock : Mutex.t;
    table : 'a H.t;
    order : K.t Queue.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create capacity =
    {
      capacity;
      lock = Mutex.create ();
      table = H.create (min capacity 256);
      order = Queue.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  (* [find] and [add] lock by hand rather than through [Mutex.protect]:
     they are on the kernelling hot path, and nothing between lock and
     unlock raises *)
  let find t k =
    Mutex.lock t.lock;
    let v = H.find_opt t.table k in
    Mutex.unlock t.lock;
    Atomic.incr (if Option.is_some v then t.hits else t.misses);
    v

  let add t k v =
    Mutex.lock t.lock;
    if not (H.mem t.table k) then begin
      if H.length t.table >= t.capacity then
        Option.iter (H.remove t.table) (Queue.take_opt t.order);
      Queue.add k t.order
    end;
    H.replace t.table k v;
    Mutex.unlock t.lock

  let clear t =
    Mutex.protect t.lock (fun () ->
        H.reset t.table;
        Queue.clear t.order);
    Atomic.set t.hits 0;
    Atomic.set t.misses 0

  let stats t = (Atomic.get t.hits, Atomic.get t.misses)
end
