(* Coverage for the smaller API surfaces: printers, edge branches and
   convenience helpers not exercised elsewhere. *)

module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Stats = E2e_stats.Stats
module Solver = E2e_core.Solver
module H_portfolio = E2e_core.H_portfolio
open Helpers

let test_rat_pp_decimal_fallback () =
  (* 1/3 has no finite decimal form: falls back to 4 decimal places. *)
  Alcotest.(check string) "1/3" "0.3333" (Format.asprintf "%a" Rat.pp_decimal (Rat.make 1 3));
  Alcotest.(check string) "negative exact" "-0.5"
    (Format.asprintf "%a" Rat.pp_decimal (Rat.make (-1) 2));
  Alcotest.(check string) "abs" "3/2" (Rat.to_string (Rat.abs (Rat.make (-3) 2)))

let test_rat_misc () =
  check_rat "neg" (Rat.make (-1) 2) (Rat.neg (Rat.make 1 2));
  check_rat "minus_one" (Rat.of_int (-1)) Rat.minus_one;
  Alcotest.(check int) "num" 3 (Rat.num (Rat.make 3 4));
  Alcotest.(check int) "den" 4 (Rat.den (Rat.make 3 4));
  Alcotest.(check bool) "<> on equal" false Rat.(Rat.one <> Rat.make 2 2);
  Alcotest.(check bool) "is_integer" true (Rat.is_integer (Rat.make 8 4))

let test_stats_pp () =
  let ci = Stats.wilson_interval ~successes:5 ~trials:10 ~z:Stats.z_90 in
  Alcotest.(check bool) "pp_ci prints brackets" true
    (Helpers.contains (Format.asprintf "%a" Stats.pp_ci ci) "[")

let test_task_helpers () =
  let t = Task.make ~id:0 ~release:(r 0) ~deadline:(r 3) ~proc_times:[| r 1; r 1 |] in
  Alcotest.(check bool) "feasible alone" true (Task.is_feasible_alone t);
  let tight = Task.make ~id:0 ~release:(r 0) ~deadline:(r 1) ~proc_times:[| r 1; r 1 |] in
  Alcotest.(check bool) "infeasible alone" false (Task.is_feasible_alone tight);
  Alcotest.(check bool) "task pp" true
    (Helpers.contains (Format.asprintf "%a" Task.pp t) "T0")

let test_flow_shop_pp_and_guards () =
  let shop = Flow_shop.of_params [| (r 0, r 9, [| r 1; r 1 |]) |] in
  Alcotest.(check bool) "pp mentions processors" true
    (Helpers.contains (Format.asprintf "%a" Flow_shop.pp shop) "2 processors");
  Alcotest.(check bool) "empty of_params rejected" true
    (match Flow_shop.of_params [||] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "mismatched ids rejected" true
    (match
       Flow_shop.make ~processors:1
         [| Task.make ~id:5 ~release:(r 0) ~deadline:(r 2) ~proc_times:[| r 1 |] |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_visit_dot_labels () =
  let dot = Visit.to_dot (Visit.of_one_based [| 1; 2; 1 |]) in
  Alcotest.(check bool) "back edge P2->P1" true (Helpers.contains dot "P2 -> P1");
  Alcotest.(check bool) "label 2" true (Helpers.contains dot "label=\"2\"")

let test_gantt_unit_time () =
  let shop = Flow_shop.of_params [| (r 0, r 9, [| Rat.make 1 2; Rat.make 1 2 |]) |] in
  let s = Schedule.forward_pass (Recurrence_shop.of_traditional shop) ~order:[| 0 |] in
  let fine = Format.asprintf "%a" (Schedule.pp_gantt ~unit_time:(Rat.make 1 2)) s in
  Alcotest.(check bool) "half-unit columns show the stages" true
    (Helpers.contains fine "P1 |1")

let test_solver_pp_verdicts () =
  let render v = Format.asprintf "%a" Solver.pp_verdict v in
  let shop = Flow_shop.of_params [| (r 0, r 9, [| r 1; r 1 |]) |] in
  (match Solver.solve shop with
  | Solver.Feasible (_, `Eedf) as v ->
      Alcotest.(check bool) "mentions EEDF" true (Helpers.contains (render v) "EEDF")
  | _ -> Alcotest.fail "single identical task is EEDF-feasible");
  let impossible =
    Flow_shop.of_params [| (r 0, r 2, [| r 1; r 1 |]); (r 0, r 2, [| r 1; r 1 |]) |]
  in
  match Solver.solve impossible with
  | Solver.Proved_infeasible _ as v ->
      Alcotest.(check bool) "mentions infeasible" true (Helpers.contains (render v) "infeasible")
  | _ -> Alcotest.fail "expected proof of infeasibility"

let test_portfolio_pp () =
  let strategies =
    [
      H_portfolio.H_with_bottleneck 2;
      H_portfolio.Order_earliest_deadline;
      H_portfolio.Order_least_slack;
      H_portfolio.Order_earliest_release;
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "nonempty" true
        (String.length (Format.asprintf "%a" H_portfolio.pp_strategy s) > 5))
    strategies

let test_heap_edges () =
  let h = E2e_ds.Heap.create ~cmp:compare in
  Alcotest.(check int) "empty length" 0 (E2e_ds.Heap.length h);
  Alcotest.(check (option int)) "peek empty" None (E2e_ds.Heap.peek h);
  E2e_ds.Heap.push h 42;
  Alcotest.(check int) "length 1" 1 (E2e_ds.Heap.length h)

let test_schedule_is_permutation_negative () =
  (* Orders differ between processors: not a permutation schedule. *)
  let shop =
    Flow_shop.of_params
      [| (r 0, r 50, [| r 1; r 1 |]); (r 0, r 50, [| r 1; r 1 |]) |]
  in
  let s = Schedule.of_flow_shop shop [| [| r 0; r 10 |]; [| r 1; r 2 |] |] in
  Alcotest.(check bool) "detected" false (Schedule.is_permutation s)

let test_johnson_schedule_feasibility_passthrough () =
  (* Johnson ignores windows, but the returned schedule is still
     checkable; with generous deadlines it is feasible. *)
  let shop =
    Flow_shop.of_params
      [| (r 0, r 100, [| r 3; r 2 |]); (r 0, r 100, [| r 1; r 4 |]) |]
  in
  assert_feasible "johnson schedule" (E2e_baselines.Johnson.schedule shop)

let suite =
  [
    Alcotest.test_case "rat pp_decimal fallback" `Quick test_rat_pp_decimal_fallback;
    Alcotest.test_case "rat misc" `Quick test_rat_misc;
    Alcotest.test_case "stats pp" `Quick test_stats_pp;
    Alcotest.test_case "task helpers" `Quick test_task_helpers;
    Alcotest.test_case "flow shop pp & guards" `Quick test_flow_shop_pp_and_guards;
    Alcotest.test_case "visit dot labels" `Quick test_visit_dot_labels;
    Alcotest.test_case "gantt unit_time" `Quick test_gantt_unit_time;
    Alcotest.test_case "solver verdict printers" `Quick test_solver_pp_verdicts;
    Alcotest.test_case "portfolio strategy printers" `Quick test_portfolio_pp;
    Alcotest.test_case "heap edges" `Quick test_heap_edges;
    Alcotest.test_case "non-permutation detection" `Quick test_schedule_is_permutation_negative;
    Alcotest.test_case "johnson schedule checkable" `Quick
      test_johnson_schedule_feasibility_passthrough;
  ]
