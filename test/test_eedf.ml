module Rat = E2e_rat.Rat
module Flow_shop = E2e_model.Flow_shop
module Schedule = E2e_schedule.Schedule
module Sm = E2e_core.Single_machine
module Eedf = E2e_core.Eedf
module Prng = E2e_prng.Prng
module Gen = E2e_workload.Feasible_gen
open Helpers

let identical_shop params =
  Flow_shop.of_params (Array.of_list params)

let test_simple_pipeline () =
  (* Three unit tasks, three processors, deadlines comfortable. *)
  let shop =
    identical_shop
      [
        (r 0, r 5, [| r 1; r 1; r 1 |]);
        (r 0, r 6, [| r 1; r 1; r 1 |]);
        (r 0, r 7, [| r 1; r 1; r 1 |]);
      ]
  in
  match Eedf.schedule shop with
  | Ok s ->
      assert_feasible "eedf pipeline" s;
      (* Deadline order: T0 first; stages chain with step tau. *)
      check_rat "T0 P1" (r 0) (Schedule.start s ~task:0 ~stage:0);
      check_rat "T0 P2" (r 1) (Schedule.start s ~task:0 ~stage:1);
      check_rat "T1 P1" (r 1) (Schedule.start s ~task:1 ~stage:0)
  | Error _ -> Alcotest.fail "feasible pipeline rejected"

let test_rejects_non_identical () =
  let shop = identical_shop [ (r 0, r 9, [| r 1; r 2 |]) ] in
  match Eedf.schedule shop with
  | Error `Not_identical_length -> ()
  | _ -> Alcotest.fail "must reject non-identical-length sets"

let test_infeasible () =
  (* Two tasks, both must finish by 2; only one can. *)
  let shop =
    identical_shop [ (r 0, r 2, [| r 1; r 1 |]); (r 0, r 2, [| r 1; r 1 |]) ]
  in
  match Eedf.schedule shop with
  | Error `Infeasible -> ()
  | _ -> Alcotest.fail "should prove infeasibility"

let test_flow_shop_trap () =
  (* The single-machine trap lifted to a 2-processor flow shop: plain EDF
     on P1 fails, forbidden regions succeed.  tau = 2, m = 2. *)
  let shop =
    identical_shop [ (r 0, r 14, [| r 2; r 2 |]); (r 1, r 5, [| r 2; r 2 |]) ]
  in
  (match Eedf.schedule_no_regions shop with
  | Error (`Deadline_missed _) -> ()
  | Ok s -> Alcotest.failf "plain EDF unexpectedly feasible: %a" Schedule.pp_table s
  | Error `Not_identical_length -> Alcotest.fail "classification");
  match Eedf.schedule shop with
  | Ok s -> assert_feasible "regions fix the trap" s
  | Error _ -> Alcotest.fail "EEDF must schedule the trap"

let test_reduction_shape () =
  let shop =
    identical_shop [ (r 1, r 10, [| r 2; r 2; r 2 |]) ]
  in
  let jobs = E2e_fuzz.Oracle.eedf_jobs shop ~tau:(r 2) in
  check_rat "release kept" (r 1) jobs.(0).Sm.release;
  check_rat "deadline shifted by (m-1) tau" (r 6) jobs.(0).Sm.deadline

(* Optimality: identical-length flow-shop feasibility is equivalent to
   single-machine feasibility of the reduced instance, which brute force
   decides exactly. *)
let prop_optimality =
  QCheck.Test.make ~name:"EEDF flow shop optimal vs brute force" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 4 in
      let m = 2 + Prng.int g 3 in
      let tau = Rat.make (1 + Prng.int g 4) 2 in
      let shop = Gen.identical_length g ~n ~m ~tau ~window:6 in
      let exact = Sm.brute_force_feasible ~tau (E2e_fuzz.Oracle.eedf_jobs shop ~tau) in
      match Eedf.schedule shop with
      | Ok s -> exact && Schedule.is_feasible s
      | Error `Infeasible -> not exact
      | Error `Not_identical_length -> false)

let prop_produces_permutation =
  QCheck.Test.make ~name:"EEDF schedules are permutation schedules" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 4 in
      let m = 2 + Prng.int g 3 in
      let shop = Gen.identical_length g ~n ~m ~tau:Rat.one ~window:8 in
      match Eedf.schedule shop with
      | Ok s -> Schedule.is_permutation s
      | Error _ -> true)

let suite =
  [
    Alcotest.test_case "simple pipeline" `Quick test_simple_pipeline;
    Alcotest.test_case "rejects non-identical" `Quick test_rejects_non_identical;
    Alcotest.test_case "proves infeasibility" `Quick test_infeasible;
    Alcotest.test_case "flow-shop trap" `Quick test_flow_shop_trap;
    Alcotest.test_case "reduction shape" `Quick test_reduction_shape;
    to_alcotest prop_optimality;
    to_alcotest prop_produces_permutation;
  ]
