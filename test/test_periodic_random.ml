(* Randomised cross-validation of the periodic machinery: the utilization
   bound (Equation 1), the exact response-time analysis and the
   discrete-event simulator must agree on thousands of random job
   systems. *)

module Rat = E2e_rat.Rat
module Periodic_shop = E2e_model.Periodic_shop
module Analysis = E2e_periodic.Analysis
module Response_time = E2e_periodic.Response_time
module Rm_sim = E2e_sim.Rm_sim
module Pipeline_sim = E2e_sim.Pipeline_sim
module Prng = E2e_prng.Prng
module Gen = E2e_workload.Feasible_gen
open Helpers

let random_sys g =
  let n = 2 + Prng.int g 3 in
  let m = 1 + Prng.int g 3 in
  let utilization = 0.1 +. Prng.float g 0.5 in
  Gen.periodic g ~n ~m ~utilization

let test_generator_hits_target () =
  let g = Prng.create 71 in
  for _ = 1 to 100 do
    let target = 0.2 +. Prng.float g 0.5 in
    let sys = Gen.periodic g ~n:4 ~m:3 ~utilization:target in
    Array.iter
      (fun u ->
        let u = Rat.to_float u in
        Alcotest.(check bool)
          (Printf.sprintf "u=%.3f near target %.3f" u target)
          true
          (Float.abs (u -. target) < 0.05))
      (Periodic_shop.utilizations sys)
  done

let prop_rta_below_eq1 =
  (* Exact RTA never exceeds the Equation-1 guarantee wherever both
     apply. *)
  to_alcotest
    (QCheck.Test.make ~name:"RTA <= Equation-1 bound on random systems" ~count:200
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let g = Prng.create seed in
         let sys = random_sys g in
         match (Analysis.deltas sys, Response_time.all sys) with
         | Ok deltas, Ok bounds ->
             let ok = ref true in
             Array.iteri
               (fun i row ->
                 let p = Rat.to_float sys.Periodic_shop.jobs.(i).Periodic_shop.period in
                 Array.iteri
                   (fun j rta ->
                     if Rat.to_float rta > (deltas.(j) *. p) +. 1e-9 then ok := false)
                   row)
               bounds;
             !ok
         | _ -> true))

let prop_rta_validated_by_simulation =
  (* Synchronous (all-phases-zero) per-processor simulation never shows a
     response above the RTA bound, and attains it for some request. *)
  to_alcotest
    (QCheck.Test.make ~name:"simulated responses within RTA bounds" ~count:100
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let g = Prng.create seed in
         let sys = random_sys g in
         match Response_time.all sys with
         | Error _ -> true
         | Ok bounds ->
             let ok = ref true in
             for j = 0 to sys.Periodic_shop.processors - 1 do
               let specs =
                 Array.map
                   (fun (jb : Periodic_shop.job) ->
                     ( 0.0,
                       Rat.to_float jb.Periodic_shop.period,
                       Rat.to_float jb.Periodic_shop.proc_times.(j) ))
                   sys.Periodic_shop.jobs
               in
               let horizon =
                 4.0 *. Array.fold_left (fun acc (_, p, _) -> Float.max acc p) 0.0 specs
               in
               let result = Rm_sim.simulate ~horizon (Rm_sim.rm_priorities specs) in
               Array.iteri
                 (fun i measured ->
                   if measured > Rat.to_float bounds.(i).(j) +. 1e-6 then ok := false)
                 result.Rm_sim.max_response
             done;
             !ok))

let prop_schedulable_systems_simulate_clean =
  (* Whenever the Equation-1 analysis says Schedulable, the postponed-
     phase pipeline simulation shows no precedence violation and no
     deadline miss. *)
  to_alcotest
    (QCheck.Test.make ~name:"Equation-1 verdicts validated by pipeline simulation" ~count:60
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let g = Prng.create seed in
         let sys = random_sys g in
         match Analysis.analyse sys with
         | Analysis.Schedulable { deltas; _ } ->
             let horizon =
               Float.min 5000.0 (4.0 *. Rat.to_float (Periodic_shop.hyperperiod sys))
             in
             let report =
               Pipeline_sim.simulate ~horizon ~policy:(`Postponed_phases deltas) sys
             in
             report.Pipeline_sim.precedence_violations = 0
             && report.Pipeline_sim.deadline_misses = 0
         | _ -> true))

let prop_rta_phases_simulate_clean =
  (* Same validation for the tighter RTA-based phase postponement. *)
  to_alcotest
    (QCheck.Test.make ~name:"RTA phase postponement validated by simulation" ~count:60
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let g = Prng.create seed in
         let sys = random_sys g in
         match Response_time.analyse sys with
         | Response_time.Schedulable { bounds; end_to_end } ->
             (* Simulate each processor independently at the RTA phases
                and check precedence + end-to-end bounds. *)
             let phases = Response_time.phases sys bounds in
             let m = sys.Periodic_shop.processors in
             let horizon =
               Float.min 5000.0 (4.0 *. Rat.to_float (Periodic_shop.hyperperiod sys))
             in
             let tables =
               Array.init m (fun j ->
                   let specs =
                     Array.mapi
                       (fun i (jb : Periodic_shop.job) ->
                         ( Rat.to_float phases.(i).(j),
                           Rat.to_float jb.Periodic_shop.period,
                           Rat.to_float jb.Periodic_shop.proc_times.(j) ))
                       sys.Periodic_shop.jobs
                   in
                   Rm_sim.simulate ~horizon (Rm_sim.rm_priorities specs))
             in
             let ok = ref true in
             Array.iteri
               (fun i (jb : Periodic_shop.job) ->
                 let p = Rat.to_float jb.Periodic_shop.period in
                 List.iter
                   (fun (c : Rm_sim.completion) ->
                     if c.Rm_sim.task = i then begin
                       (* Response on the last processor bounded by the
                          per-stage RTA bound. *)
                       if Rm_sim.response c > Rat.to_float bounds.(i).(m - 1) +. 1e-6 then
                         ok := false;
                       let ready0 =
                         Rat.to_float jb.Periodic_shop.phase +. (float_of_int c.Rm_sim.index *. p)
                       in
                       if c.Rm_sim.finish -. ready0 > Rat.to_float end_to_end.(i) +. 1e-6 then
                         ok := false
                     end)
                   tables.(m - 1).Rm_sim.completions)
               sys.Periodic_shop.jobs;
             !ok
         | _ -> true))

let test_busy_period_carry_in () =
  (* C = (1, 2.3), T = (2, 5): u = 0.96.  J2's first instance responds in
     5.3 (> period!), the second in 4.6; Lehoczky's analysis must return
     the max, 5.3, and the synchronous simulation must attain it. *)
  let sys =
    Periodic_shop.of_params
      [|
        (Rat.of_int 2, [| Rat.of_int 1 |]);
        (Rat.of_int 5, [| Rat.of_decimal_string "2.3" |]);
      |]
  in
  (match Response_time.per_processor sys ~processor:0 with
  | Error _ -> Alcotest.fail "bounded (u < 1)"
  | Ok bounds ->
      check_rat "R1" Rat.one bounds.(0);
      check_rat "R2 = 5.3 over two instances" (Rat.make 53 10) bounds.(1));
  let tasks = Rm_sim.rm_priorities [| (0.0, 2.0, 1.0); (0.0, 5.0, 2.3) |] in
  let result = Rm_sim.simulate ~horizon:40.0 tasks in
  Alcotest.(check (float 1e-9)) "simulation attains 5.3" 5.3 result.Rm_sim.max_response.(1)

let test_completion_ties_arrival () =
  (* C = (67/50, 1682/25), T = (39/4, 643/4): J2's exact RTA bound is 78,
     the instant of J1's ninth release.  The simulator accumulates J2's
     remaining demand as a float, so its completion lands a drift above
     that arrival; it must still complete first, not be preempted to
     79.34. *)
  let c1 = Rat.make 67 50 and c2 = Rat.make 1682 25 in
  let t1 = Rat.make 39 4 and t2 = Rat.make 643 4 in
  let sys = Periodic_shop.of_params [| (t1, [| c1 |]); (t2, [| c2 |]) |] in
  (match Response_time.per_processor sys ~processor:0 with
  | Error _ -> Alcotest.fail "bounded (u < 1)"
  | Ok bounds -> check_rat "R2 = 78" (Rat.of_int 78) bounds.(1));
  let spec t c = (0.0, Rat.to_float t, Rat.to_float c) in
  let tasks = Rm_sim.rm_priorities [| spec t1 c1; spec t2 c2 |] in
  let result = Rm_sim.simulate ~horizon:(4.0 *. Rat.to_float t2) tasks in
  Alcotest.(check (float 1e-6)) "simulation attains 78" 78.0 result.Rm_sim.max_response.(1)

let test_busy_period_full_and_over_utilization () =
  (* At u = 1 exactly the level-2 busy period closes at the hyperperiod:
     the bound is finite (5.5, matching the simulated miss depth of the
     Table 5 narrative pair).  Above u = 1 it truly diverges. *)
  let at_full =
    Periodic_shop.of_params
      [|
        (Rat.of_int 2, [| Rat.of_int 1 |]);
        (Rat.of_int 5, [| Rat.of_decimal_string "2.5" |]);
      |]
  in
  (match Response_time.per_processor at_full ~processor:0 with
  | Ok bounds -> check_rat "R2 = 5.5 at u = 1" (Rat.make 11 2) bounds.(1)
  | Error _ -> Alcotest.fail "u = 1 still closes at the hyperperiod");
  let over =
    Periodic_shop.of_params
      [|
        (Rat.of_int 2, [| Rat.of_int 1 |]);
        (Rat.of_int 5, [| Rat.of_decimal_string "2.6" |]);
      |]
  in
  match Response_time.per_processor over ~processor:0 with
  | Error (`Unbounded 1) -> ()
  | _ -> Alcotest.fail "u > 1 diverges"

let test_rta_table5_within_period () =
  (* The exact analysis shows the reconstructed Table 5 pair actually
     fits within the period (R = (1, 4) per stage chain: 1+1=2 <= 2 and
     2+2=4 <= 5) — Equation (1) needed a 10.6% postponement.  Bound
     pessimism is precisely what the paper's utilization-based route
     trades for closed form. *)
  let sys = E2e_workload.Paper_instances.table5 () in
  match Response_time.analyse sys with
  | Response_time.Schedulable { end_to_end; _ } ->
      check_rat "J1 end-to-end 1" Rat.one end_to_end.(0);
      check_rat "J2 end-to-end 4" (Rat.of_int 4) end_to_end.(1)
  | v -> Alcotest.failf "expected schedulable: %a" Response_time.pp_verdict v

let test_non_permutation_witness () =
  let shop = E2e_workload.Paper_instances.non_permutation_witness () in
  Alcotest.(check int) "no permutation order works" 0
    (E2e_baselines.Exhaustive.count_feasible_orders shop);
  (match E2e_baselines.Branch_bound.solve shop with
  | E2e_baselines.Branch_bound.Feasible s -> assert_feasible "bb witness" s
  | _ -> Alcotest.fail "oracle must confirm feasibility");
  match E2e_core.Algo_h.schedule shop with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "H searches permutations only; it cannot solve this instance"

let suite =
  [
    Alcotest.test_case "periodic generator hits target" `Quick test_generator_hits_target;
    prop_rta_below_eq1;
    prop_rta_validated_by_simulation;
    prop_schedulable_systems_simulate_clean;
    prop_rta_phases_simulate_clean;
    Alcotest.test_case "busy-period carry-in" `Quick test_busy_period_carry_in;
    Alcotest.test_case "busy period at u = 1 and beyond" `Quick
      test_busy_period_full_and_over_utilization;
    Alcotest.test_case "RTA: table 5 fits the period" `Quick test_rta_table5_within_period;
    Alcotest.test_case "non-permutation witness" `Quick test_non_permutation_witness;
    Alcotest.test_case "completion tied with an arrival" `Quick test_completion_ties_arrival;
  ]
