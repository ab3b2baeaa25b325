(** C code emission: the software counterpart of the Verilog back-end.

    The generated function computes every output of the decomposition with
    wrap-around [width]-bit unsigned arithmetic (C unsigned overflow is
    defined, so masking after every operation gives exactly the bit-vector
    semantics of {!Netlist.eval}).  Widths up to 64 bits are supported.

    With [self_check], the file also contains a [main] that evaluates a
    deterministic set of input vectors against expected values baked in at
    emission time (computed by the reference simulator) and exits non-zero
    on any mismatch — so compiling and running the output is an end-to-end
    semantic check of the decomposition. *)

val emit : ?func_name:string -> ?self_check:int -> Netlist.t -> string
(** The function takes the i-th input of {!Netlist.inputs} (sorted by
    name) as parameter [in<i>], then a pointer [out<i>] for the i-th
    output of the netlist, each followed by a comment that holds its
    name.  No name from the netlist appears in the C text outside a
    comment or a string literal, so an input may be named like a C
    keyword, a macro of [<stdint.h>] or [<stdio.h>], or one of the file's
    own identifiers ([word], [POLYSYNTH_MASK], the wires [n<id>],
    [errors]).  [func_name] defaults to "polysynth"; [self_check] (a
    vector count) adds the self-checking [main], its vectors drawn from a
    generator seeded with 1, which names a failing output in its message.
    @raise Invalid_argument when the width exceeds 64 bits. *)
