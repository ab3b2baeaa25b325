type t = { mutable state : int }

let make seed = { state = (seed * 2654435761) lor 1 }

let next rng bound =
  let s = rng.state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  rng.state <- s land max_int;
  if bound <= 0 then 0 else rng.state mod bound
