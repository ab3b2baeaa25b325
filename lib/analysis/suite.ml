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

(* Schedule on a deliberately tight resource budget (maximal unit
   sharing), bind, and re-check both results with the independent
   checkers: any violation is a scheduler/binder bug, not a property of
   the input, hence Error severity and its own exit code. *)
let binding_check n =
  let resources = { Schedule.multipliers = 1; adders = 1 } in
  match Schedule.list_schedule resources n with
  | Error (`No_progress np) ->
    [
      Diag.error ~code:"bind.schedule-stuck" Diag.Program
        np.Schedule.message;
    ]
  | Ok sched ->
    let schedule_ok = Schedule.is_valid resources n sched in
    let b = Bind.bind n sched in
    let binding_ok = Bind.is_consistent b in
    (if schedule_ok then []
     else
       [
         Diag.error ~code:"bind.invalid-schedule" Diag.Program
           "list scheduler produced a schedule violating dependences or \
            resource bounds";
       ])
    @
    if binding_ok then []
    else
      [
        Diag.error ~code:"bind.inconsistent" Diag.Program
          "resource binding violates binder invariants (unit conflict, \
           missing register, or lifetime overlap)";
      ]

let analyze ?ctx prog n simplified =
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
      let binding = binding_check n in
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
