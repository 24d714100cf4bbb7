module Rat = E2e_rat.Rat
module Periodic_shop = E2e_model.Periodic_shop
module Heap = E2e_ds.Heap
module Rm_sim = E2e_sim.Rm_sim
module Pipeline_sim = E2e_sim.Pipeline_sim
module Analysis = E2e_periodic.Analysis
module Rm_bounds = E2e_periodic.Rm_bounds
module Prng = E2e_prng.Prng
module Paper = E2e_workload.Paper_instances
open Helpers

let feq ?(tol = 1e-9) msg expected actual = Alcotest.(check (float tol)) msg expected actual

let test_heap_sorts () =
  let h = Heap.of_list ~cmp:compare [ 5; 1; 4; 1; 3; 9; 2 ] in
  Alcotest.(check (list int)) "drain sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (Heap.drain h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list int)
    (fun l -> Heap.drain (Heap.of_list ~cmp:compare l) = List.sort compare l)

let test_heap_interleaved () =
  let h = Heap.create ~cmp:compare in
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Heap.push h 0;
  Alcotest.(check (option int)) "new min" (Some 0) (Heap.pop h);
  Alcotest.(check (option int)) "remaining" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "empty" None (Heap.pop h);
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h)

(* Liu & Layland's p = (2, 5) pair.  With tau = (1, 2), U = 0.9 exceeds
   the n=2 bound (0.828) yet is schedulable: J2's critical-instant
   response is 4.  With tau = (1, 2.5), U = 1.0, J2 finishes at 5.5 and
   misses the end of its period — the narrative example of the paper's
   Table 5 discussion ("J1 has to be interrupted to let J2 execute"). *)
let test_rm_ll_pair () =
  let ok = Rm_sim.simulate ~horizon:10.0 (Rm_sim.rm_priorities [| (0.0, 2.0, 1.0); (0.0, 5.0, 2.0) |]) in
  Alcotest.(check int) "nothing unfinished" 0 ok.Rm_sim.unfinished;
  feq "J1 response is its wcet" 1.0 ok.Rm_sim.max_response.(0);
  feq "J2 critical-instant response 4" 4.0 ok.Rm_sim.max_response.(1);
  let miss = Rm_sim.simulate ~horizon:10.0 (Rm_sim.rm_priorities [| (0.0, 2.0, 1.0); (0.0, 5.0, 2.5) |]) in
  feq "full-utilization J2 finishes at 5.5" 5.5 miss.Rm_sim.max_response.(1)

let test_rm_overload_misses () =
  (* Same pair with J2 inflated: J2 can no longer fit in its period. *)
  let tasks = Rm_sim.rm_priorities [| (0.0, 2.0, 1.0); (0.0, 5.0, 2.6) |] in
  let result = Rm_sim.simulate ~horizon:10.0 tasks in
  Alcotest.(check bool) "J2 response exceeds its period" true
    (result.Rm_sim.max_response.(1) > 5.0)

let test_rm_preemption () =
  (* Low-priority job started first gets preempted by a later arrival of
     a high-priority one. *)
  let tasks = Rm_sim.rm_priorities [| (1.0, 4.0, 1.0); (0.0, 20.0, 3.0) |] in
  let result = Rm_sim.simulate ~horizon:20.0 tasks in
  let low = List.find (fun c -> c.Rm_sim.task = 1 && c.Rm_sim.index = 0) result.Rm_sim.completions in
  (* Runs [0,1), preempted [1,2), resumes [2,4): finishes at 4. *)
  feq "preempted completion" 4.0 low.Rm_sim.finish

let test_rm_phases_respected () =
  let tasks = Rm_sim.rm_priorities [| (3.0, 5.0, 1.0) |] in
  let result = Rm_sim.simulate ~horizon:10.0 tasks in
  match result.Rm_sim.completions with
  | [ c0; c1 ] ->
      feq "first request at phase" 3.0 c0.Rm_sim.ready;
      feq "first finish" 4.0 c0.Rm_sim.finish;
      feq "second request" 8.0 c1.Rm_sim.ready
  | l -> Alcotest.failf "expected 2 completions, got %d" (List.length l)

(* The analytical guarantee validated by simulation: every request
   completes within delta * p_i of its ready time. *)
let test_rm_bound_validated () =
  let g = Prng.create 321 in
  for _ = 1 to 30 do
    let n = 2 + Prng.int g 3 in
    (* Draw utilization-controlled task sets below the bound. *)
    let periods = Array.init n (fun _ -> 2.0 +. Prng.float g 20.0) in
    let target_u = 0.3 +. Prng.float g 0.3 in
    let weights = Array.init n (fun _ -> 0.2 +. Prng.float g 1.0) in
    let wsum = Array.fold_left ( +. ) 0.0 weights in
    let specs =
      Array.init n (fun i ->
          let u_i = target_u *. weights.(i) /. wsum in
          (0.0, periods.(i), Float.max 1e-3 (u_i *. periods.(i))))
    in
    let u = Array.fold_left (fun acc (_, p, c) -> acc +. (c /. p)) 0.0 specs in
    match Rm_bounds.min_delta ~n ~u with
    | None -> ()
    | Some delta ->
        let horizon = 50.0 *. Array.fold_left Float.max 0.0 periods in
        let result = Rm_sim.simulate ~horizon (Rm_sim.rm_priorities specs) in
        List.iter
          (fun (c : Rm_sim.completion) ->
            let _, p, _ = specs.(c.Rm_sim.task) in
            if Rm_sim.response c > (delta *. p) +. 1e-6 then
              Alcotest.failf "response %.4f exceeds delta*p = %.4f (u=%.3f, delta=%.3f)"
                (Rm_sim.response c) (delta *. p) u delta)
          result.Rm_sim.completions
  done

let test_pipeline_table4 () =
  (* Table 4 is schedulable within the period; the postponed-phase
     simulation must confirm: no precedence violation, no deadline miss. *)
  let sys = Paper.table4 () in
  match Analysis.analyse sys with
  | Analysis.Schedulable { deltas; _ } ->
      let horizon = 10.0 *. Rat.to_float (Periodic_shop.hyperperiod sys) in
      let report = Pipeline_sim.simulate ~horizon ~policy:(`Postponed_phases deltas) sys in
      Alcotest.(check bool) "measured some requests" true (report.Pipeline_sim.requests > 10);
      Alcotest.(check int) "no precedence violations" 0 report.Pipeline_sim.precedence_violations;
      Alcotest.(check int) "no deadline misses" 0 report.Pipeline_sim.deadline_misses;
      (* And the measured end-to-end response is within the analytic bound. *)
      Array.iteri
        (fun i resp ->
          let bound = Analysis.response_bound sys deltas i in
          Alcotest.(check bool) "measured <= bound" true (resp <= bound +. 1e-6))
        report.Pipeline_sim.end_to_end
  | v -> Alcotest.failf "expected schedulable: %a" Analysis.pp_verdict v

let test_pipeline_table5_postponed_deadlines () =
  (* Table 5 needs deadlines postponed to 1.106 p_i; with that factor the
     simulation is clean, with factor 1.0 it must report misses under the
     same postponed phases. *)
  let sys = Paper.table5 () in
  match Analysis.analyse sys with
  | Analysis.Schedulable_postponed { deltas; total } ->
      let horizon = 20.0 *. Rat.to_float (Periodic_shop.hyperperiod sys) in
      let ok =
        Pipeline_sim.simulate ~deadline_factor:total ~horizon
          ~policy:(`Postponed_phases deltas) sys
      in
      Alcotest.(check int) "no misses at factor 1.106" 0 ok.Pipeline_sim.deadline_misses;
      Alcotest.(check int) "no precedence violations" 0 ok.Pipeline_sim.precedence_violations
  | v -> Alcotest.failf "expected postponed-schedulable: %a" Analysis.pp_verdict v

let test_pipeline_direct_sync () =
  (* Direct synchronisation on table 4: greedy releases finish no later
     than the postponed-phase bound allows, so everything meets the
     period deadline too. *)
  let sys = Paper.table4 () in
  let horizon = 10.0 *. Rat.to_float (Periodic_shop.hyperperiod sys) in
  let report = Pipeline_sim.simulate ~horizon ~policy:`Direct_sync sys in
  Alcotest.(check bool) "requests measured" true (report.Pipeline_sim.requests > 10);
  Alcotest.(check int) "no deadline misses" 0 report.Pipeline_sim.deadline_misses

let test_pipeline_direct_vs_postponed () =
  (* Greedy synchronisation can only improve the worst end-to-end
     response relative to the analytic bound. *)
  let sys = Paper.table4 () in
  match Analysis.analyse sys with
  | Analysis.Schedulable { deltas; _ } ->
      let horizon = 10.0 *. Rat.to_float (Periodic_shop.hyperperiod sys) in
      let direct = Pipeline_sim.simulate ~horizon ~policy:`Direct_sync sys in
      Array.iteri
        (fun i resp ->
          Alcotest.(check bool) "direct within analytic bound" true
            (resp <= Analysis.response_bound sys deltas i +. 1e-6))
        direct.Pipeline_sim.end_to_end
  | v -> Alcotest.failf "expected schedulable: %a" Analysis.pp_verdict v

let suite =
  [
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    to_alcotest prop_heap_sorts;
    Alcotest.test_case "heap interleaved ops" `Quick test_heap_interleaved;
    Alcotest.test_case "RM: Liu-Layland pair" `Quick test_rm_ll_pair;
    Alcotest.test_case "RM: overload misses" `Quick test_rm_overload_misses;
    Alcotest.test_case "RM: preemption" `Quick test_rm_preemption;
    Alcotest.test_case "RM: phases respected" `Quick test_rm_phases_respected;
    Alcotest.test_case "RM: Equation 1 validated" `Slow test_rm_bound_validated;
    Alcotest.test_case "pipeline: table 4 clean" `Quick test_pipeline_table4;
    Alcotest.test_case "pipeline: table 5 postponed deadlines" `Quick
      test_pipeline_table5_postponed_deadlines;
    Alcotest.test_case "pipeline: direct sync" `Quick test_pipeline_direct_sync;
    Alcotest.test_case "pipeline: direct within bound" `Quick test_pipeline_direct_vs_postponed;
  ]
