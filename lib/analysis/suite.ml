module Schedule = Polysynth_hw.Schedule
module Bind = Polysynth_hw.Bind

type report = {
  wellformed : Diag.t list;
  widths : Diag.t list;
  redundancy : Diag.t list;
  binding : Diag.t list;
  simplify : Diag.t list;
}

let empty_report wf =
  { wellformed = wf; widths = []; redundancy = []; binding = []; simplify = [] }

(* re-check the caller's binding with the independent checkers: any
   violation is a scheduler/binder bug, not a property of the input, hence
   Error severity and its own exit code *)
let binding_check (b : Bind.binding) =
  let error code msg = [ Diag.error ~code Diag.Program msg ] in
  (if Schedule.is_valid b.Bind.resources b.Bind.netlist b.Bind.schedule then
     []
   else
     error "bind.invalid-schedule"
       "list scheduler produced a schedule violating dependences or \
        resource bounds")
  @
  if Bind.is_consistent b then []
  else
    error "bind.inconsistent"
      "resource binding violates binder invariants (unit conflict, missing \
       register, or lifetime overlap)"

let analyze ?ctx prog n simplified b =
  let wf_prog = Wellformed.check_prog prog in
  if Diag.has_errors wf_prog then
    (* the netlist of a broken program is not worth checking *)
    empty_report wf_prog
  else
    let wellformed =
      List.sort Diag.compare (wf_prog @ Wellformed.check_netlist n)
    in
    if Diag.has_errors wellformed then empty_report wellformed
    else
      let widths =
        let mode =
          match ctx with Some _ -> Widths.Ring | None -> Widths.Exact
        in
        Widths.check_netlist ~mode n
      in
      let redundancy =
        List.sort Diag.compare
          (Redundancy.lint_prog prog @ Redundancy.lint_netlist n)
      in
      let binding = binding_check b in
      let simplify = Simplify.diags_of_outcome simplified in
      { wellformed; widths; redundancy; binding; simplify }

let diags r =
  List.sort Diag.compare
    (r.wellformed @ r.widths @ r.redundancy @ r.binding @ r.simplify)

let exit_code r =
  if Diag.has_errors r.binding then 4
  else if Diag.has_errors (diags r) then 3
  else 0

let to_json r =
  let arr ds = "[" ^ String.concat "," (List.map Diag.to_json ds) ^ "]" in
  Printf.sprintf
    {|{"wellformed":%s,"widths":%s,"redundancy":%s,"binding":%s,"simplify":%s}|}
    (arr r.wellformed) (arr r.widths) (arr r.redundancy) (arr r.binding)
    (arr r.simplify)
