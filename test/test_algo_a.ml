module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Schedule = E2e_schedule.Schedule
module Sm = E2e_core.Single_machine
module Algo_a = E2e_core.Algo_a
module Prng = E2e_prng.Prng
module Gen = E2e_workload.Feasible_gen
module Paper = E2e_workload.Paper_instances
open Helpers

let test_table2 () =
  let shop = Paper.table2 () in
  Alcotest.(check int) "bottleneck is P3" 2 (Flow_shop.bottleneck shop);
  match Algo_a.schedule shop with
  | Ok s ->
      assert_feasible "table 2" s;
      Alcotest.(check bool) "permutation schedule" true (Schedule.is_permutation s)
  | Error _ -> Alcotest.fail "table 2 is feasible"

let test_rejects_arbitrary () =
  let shop =
    Flow_shop.of_params [| (r 0, r 9, [| r 1; r 2 |]); (r 0, r 9, [| r 2; r 2 |]) |]
  in
  match Algo_a.schedule shop with
  | Error `Not_homogeneous -> ()
  | _ -> Alcotest.fail "must reject non-homogeneous sets"

let test_upstream_layback () =
  (* Bottleneck in the middle: upstream stages end exactly at the
     bottleneck start (Step 3), downstream chain immediately. *)
  let shop =
    Flow_shop.of_params [| (r 0, r 20, [| r 1; r 4; r 2 |]) |]
  in
  match Algo_a.schedule shop with
  | Error _ -> Alcotest.fail "single task fits"
  | Ok s ->
      let t_b = Schedule.start s ~task:0 ~stage:1 in
      check_rat "upstream ends at bottleneck start" t_b (Schedule.finish s ~task:0 ~stage:0);
      check_rat "downstream starts at bottleneck end" (Rat.add t_b (r 4))
        (Schedule.start s ~task:0 ~stage:2)

let test_infeasible () =
  (* Bottleneck window can hold only one of the two tasks. *)
  let shop =
    Flow_shop.of_params
      [| (r 0, r 6, [| r 1; r 4; r 1 |]); (r 0, r 6, [| r 1; r 4; r 1 |]) |]
  in
  match Algo_a.schedule shop with
  | Error `Infeasible -> ()
  | _ -> Alcotest.fail "should prove infeasibility"

let test_bottleneck_override () =
  let shop = Paper.table2 () in
  (* Forcing a non-bottleneck processor loses the optimality guarantee;
     the call must still terminate cleanly with a schedule or a failure. *)
  match Algo_a.schedule ~bottleneck:0 shop with
  | Ok _ | Error `Infeasible -> ()
  | Error `Not_homogeneous -> Alcotest.fail "homogeneous"

(* Optimality: flow-shop feasibility for homogeneous sets is equivalent
   to single-machine feasibility on the bottleneck (both directions
   proved in the paper); brute force decides the latter exactly. *)
let prop_optimality =
  QCheck.Test.make ~name:"Algorithm A optimal vs bottleneck brute force" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 4 in
      let m = 2 + Prng.int g 3 in
      let shop = Gen.homogeneous g ~n ~m ~max_tau:3 ~window:8 in
      let b = Flow_shop.bottleneck shop in
      let taus = Option.get (Flow_shop.is_homogeneous shop) in
      let exact =
        Sm.brute_force_feasible ~tau:taus.(b) (E2e_fuzz.Oracle.bottleneck_jobs shop ~bottleneck:b)
      in
      match Algo_a.schedule shop with
      | Ok s -> exact && Schedule.is_feasible s
      | Error `Infeasible -> not exact
      | Error `Not_homogeneous -> false)

let prop_schedule_checker_clean =
  QCheck.Test.make ~name:"Algorithm A schedules pass the checker" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 5 in
      let m = 2 + Prng.int g 4 in
      let shop = Gen.homogeneous g ~n ~m ~max_tau:3 ~window:10 in
      match Algo_a.schedule shop with
      | Ok s -> Schedule.is_feasible s
      | Error _ -> true)

let suite =
  [
    Alcotest.test_case "table 2" `Quick test_table2;
    Alcotest.test_case "rejects arbitrary sets" `Quick test_rejects_arbitrary;
    Alcotest.test_case "upstream layback shape" `Quick test_upstream_layback;
    Alcotest.test_case "proves infeasibility" `Quick test_infeasible;
    Alcotest.test_case "bottleneck override" `Quick test_bottleneck_override;
    to_alcotest prop_optimality;
    to_alcotest prop_schedule_checker_clean;
  ]
