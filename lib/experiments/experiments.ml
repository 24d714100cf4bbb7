module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Stats = E2e_stats.Stats
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Periodic_shop = E2e_model.Periodic_shop
module Schedule = E2e_schedule.Schedule
module Eedf = E2e_core.Eedf
module Algo_r = E2e_core.Algo_r
module Algo_a = E2e_core.Algo_a
module Algo_h = E2e_core.Algo_h
module Exhaustive = E2e_baselines.Exhaustive
module List_edf = E2e_baselines.List_edf
module Gen = E2e_workload.Feasible_gen
module Paper = E2e_workload.Paper_instances
module Rm_bounds = E2e_periodic.Rm_bounds
module Analysis = E2e_periodic.Analysis
module Pipeline_sim = E2e_sim.Pipeline_sim
module Partition = E2e_partition.Partition
module Obs = E2e_obs.Obs
module Pool = E2e_exec.Pool

type sweep = { seed : int; trials : int; n_tasks : int; n_processors : int }

let default_fig9a = { seed = 1992; trials = 500; n_tasks = 4; n_processors = 4 }
let default_fig9b = { seed = 1992; trials = 500; n_tasks = 6; n_processors = 4 }
let default_fig10 = { seed = 1992; trials = 500; n_tasks = 10; n_processors = 4 }

(* Every Monte Carlo point below is a batch of pure per-trial jobs: trial
   [k] of a point draws from its own PRNG stream, derived with
   [Prng.of_path] from the sweep seed, the point's parameters and [k].
   No generator is shared across trials, so results — and the printed
   output — are byte-identical whatever [jobs] count runs them and in
   whatever order the pool's domains pick them up. *)

let fkey x = int_of_float (Float.round (x *. 1000.))

let count_where f rows = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 rows

let success_rate ?(jobs = 1) sweep ~stdev ~slack =
  let params =
    {
      Gen.n_tasks = sweep.n_tasks;
      n_processors = sweep.n_processors;
      mean_tau = 1.0;
      stdev;
      slack_factor = slack;
    }
  in
  let trial k =
    let g = Prng.of_path [| sweep.seed; fkey stdev; fkey slack; k |] in
    let shop = Gen.generate g params in
    Obs.incr "experiments.instances";
    match Algo_h.schedule shop with
    | Ok _ ->
        Obs.incr "experiments.feasible_found";
        true
    | Error _ -> false
  in
  let successes = count_where Fun.id (Pool.init ~jobs sweep.trials trial) in
  Stats.wilson_interval ~successes ~trials:sweep.trials ~z:Stats.z_90

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* Worked examples: Tables 1-3 / Figures 3, 5, 8.                      *)

let print_recurrent_instance ppf (shop : Recurrence_shop.t) =
  Format.fprintf ppf "%a@." Recurrence_shop.pp shop

let table1 ppf =
  Format.fprintf ppf "Table 1 / Figure 3: Algorithm R on a flow shop with recurrence@.";
  hr ppf;
  let shop = Paper.table1 () in
  Format.fprintf ppf "visit sequence %a" Visit.pp shop.Recurrence_shop.visit;
  (match Visit.single_loop shop.Recurrence_shop.visit with
  | Some { Visit.first_pos; span; reused } ->
      Format.fprintf ppf "  (loop: decision stage %d, span %d, %d reused processors)@."
        (first_pos + 1) span reused
  | None -> Format.fprintf ppf "@.");
  print_recurrent_instance ppf shop;
  match Algo_r.schedule shop with
  | Ok s ->
      (match Algo_r.decision_trace shop with
      | Ok trace ->
          Format.fprintf ppf "dispatches on the reused processor:@.";
          List.iter
            (fun { Algo_r.task; stage; start } ->
              Format.fprintf ppf "  T%d stage %d at t=%a@." (task + 1) (stage + 1) Rat.pp start)
            trace
      | Error _ -> ());
      Format.fprintf ppf "@.%a@.Gantt:@.%a@.feasible: %b@." Schedule.pp_table s
        (Schedule.pp_gantt ?unit_time:None) s (Schedule.is_feasible s)
  | Error e -> Format.fprintf ppf "FAILED: %a@." Algo_r.pp_error e

let table2 ppf =
  Format.fprintf ppf "@.Table 2 / Figure 5: Algorithm A on a homogeneous task set@.";
  hr ppf;
  let shop = Paper.table2 () in
  Format.fprintf ppf "%a@.bottleneck processor: P%d@.@." Flow_shop.pp shop
    (Flow_shop.bottleneck shop + 1);
  match Algo_a.schedule shop with
  | Ok s ->
      Format.fprintf ppf "%a@.Gantt:@.%a@.feasible: %b  (note the deliberate idle time upstream)@."
        Schedule.pp_table s (Schedule.pp_gantt ?unit_time:None) s (Schedule.is_feasible s)
  | Error _ -> Format.fprintf ppf "FAILED (instance should be feasible)@."

let table3 ppf =
  Format.fprintf ppf "@.Table 3 / Figure 8: Algorithm H before and after compaction@.";
  hr ppf;
  let shop = Paper.table3 () in
  Format.fprintf ppf "%a@.@." Flow_shop.pp shop;
  let report = Algo_h.run shop in
  Format.fprintf ppf "bottleneck (after inflation): P%d@." (report.Algo_h.bottleneck + 1);
  (match report.Algo_h.raw with
  | Some (lazy raw) ->
      Format.fprintf ppf "@.(a) before compaction:@.%a@.violations:@." Schedule.pp_table raw;
      List.iter
        (fun v -> Format.fprintf ppf "  %a@." Schedule.pp_violation v)
        (Schedule.violations raw)
  | None -> Format.fprintf ppf "Algorithm A failed on the inflated set@.");
  match report.Algo_h.result with
  | Ok s ->
      Format.fprintf ppf "@.(b) after compaction:@.%a@.feasible: %b@." Schedule.pp_table s
        (Schedule.is_feasible s)
  | Error f -> Format.fprintf ppf "@.(b) %a@." Algo_h.pp_failure f

(* ------------------------------------------------------------------ *)
(* Figures 9 and 10: success rate of Algorithm H.                      *)

let print_series ppf ~title ~jobs sweep ~stdevs ~slacks =
  Format.fprintf ppf "@.%s@." title;
  hr ppf;
  Format.fprintf ppf
    "success rate of Algorithm H on feasible task sets (%d trials/point, 90%% CI)@."
    sweep.trials;
  Format.fprintf ppf "%8s" "slack";
  List.iter (fun sd -> Format.fprintf ppf "  %20s" (Printf.sprintf "stdev = %.1f" sd)) stdevs;
  Format.fprintf ppf "@.";
  List.iter
    (fun slack ->
      Format.fprintf ppf "%8.2f" slack;
      List.iter
        (fun stdev ->
          let ci = success_rate ~jobs sweep ~stdev ~slack in
          Format.fprintf ppf "  %20s"
            (Printf.sprintf "%.3f [%.3f,%.3f]" ci.Stats.estimate ci.Stats.lo ci.Stats.hi))
        stdevs;
      Format.fprintf ppf "@.")
    slacks

let fig9a ?(sweep = default_fig9a) ?(jobs = 1) ppf =
  print_series ppf
    ~title:
      (Printf.sprintf "Figure 9(a): %d tasks on %d processors" sweep.n_tasks sweep.n_processors)
    ~jobs sweep ~stdevs:[ 0.1; 0.2; 0.5 ]
    ~slacks:[ 0.4; 0.6; 0.8; 1.0; 1.2; 1.5 ]

let fig9b ?(sweep = default_fig9b) ?(jobs = 1) ppf =
  print_series ppf
    ~title:
      (Printf.sprintf "Figure 9(b): %d tasks on %d processors" sweep.n_tasks sweep.n_processors)
    ~jobs sweep ~stdevs:[ 0.1; 0.2; 0.5 ]
    ~slacks:[ 0.4; 0.6; 0.8; 1.0; 1.2; 1.5 ]

let fig10 ?(sweep = default_fig10) ?(jobs = 1) ppf =
  print_series ppf
    ~title:
      (Printf.sprintf "Figure 10: %d tasks on %d processors, larger slack" sweep.n_tasks
         sweep.n_processors)
    ~jobs sweep ~stdevs:[ 0.5 ] ~slacks:[ 2.0; 3.0; 4.0; 5.0; 6.0 ]

let fig9_extensions ?(sweep = { default_fig9b with trials = 300 }) ?(jobs = 1) ppf =
  Format.fprintf ppf "@.Extension figure: every scheduler on the Figure 9(b) sweep (stdev 0.5)@.";
  hr ppf;
  Format.fprintf ppf "%d tasks x %d processors, %d feasible instances per point@."
    sweep.n_tasks sweep.n_processors sweep.trials;
  let schedulers =
    [
      ("Algorithm H", fun shop -> Result.is_ok (Algo_h.schedule shop));
      ("H portfolio", fun shop -> Result.is_ok (E2e_core.H_portfolio.schedule shop));
      ("greedy list-EDF", fun shop -> List_edf.feasible (Recurrence_shop.of_traditional shop));
      ( "preemptive EDF",
        fun shop -> E2e_sim.Preemptive_flow_sim.feasible (Recurrence_shop.of_traditional shop) );
      ( "local search",
        fun shop -> Option.is_some (E2e_baselines.Local_search.schedule shop) );
      ( "exhaustive (ceiling)",
        fun shop -> Exhaustive.permutation_feasible shop );
    ]
  in
  Format.fprintf ppf "%8s" "slack";
  List.iter (fun (name, _) -> Format.fprintf ppf "  %20s" name) schedulers;
  Format.fprintf ppf "@.";
  List.iter
    (fun slack ->
      Format.fprintf ppf "%8.2f" slack;
      let params =
        {
          Gen.n_tasks = sweep.n_tasks;
          n_processors = sweep.n_processors;
          mean_tau = 1.0;
          stdev = 0.5;
          slack_factor = slack;
        }
      in
      (* One instance per trial, judged by every scheduler, so the
         columns compare on identical task sets. *)
      let trial k =
        let g = Prng.of_path [| sweep.seed; fkey slack; k |] in
        let shop = Gen.generate g params in
        Obs.incr "experiments.instances";
        let outcomes = List.map (fun (_, solves) -> solves shop) schedulers in
        List.iter (fun ok -> if ok then Obs.incr "experiments.feasible_found") outcomes;
        Array.of_list outcomes
      in
      let rows = Pool.init ~jobs sweep.trials trial in
      List.iteri
        (fun column _ ->
          let ok = count_where (fun row -> row.(column)) rows in
          Format.fprintf ppf "  %20s"
            (Printf.sprintf "%.3f" (float_of_int ok /. float_of_int sweep.trials)))
        schedulers;
      Format.fprintf ppf "@.")
    [ 0.4; 0.8; 1.2 ]

let periodic_sweep ?(trials = 300) ?(seed = 3) ?(jobs = 1) ppf =
  Format.fprintf ppf
    "@.Extension figure: periodic schedulability curves (2-processor flow shops, 4 jobs)@.";
  hr ppf;
  Format.fprintf ppf
    "fraction of random systems schedulable within the period, %d systems per point@." trials;
  Format.fprintf ppf "%8s  %14s  %14s  %14s@." "u/proc" "Equation 1" "EDF density" "exact RTA";
  let eq1 sys =
    match Analysis.analyse sys with Analysis.Schedulable _ -> true | _ -> false
  in
  let edf sys =
    let policies = Array.make sys.Periodic_shop.processors Analysis.Edf in
    match Analysis.analyse_policies ~policies sys with
    | Analysis.Schedulable _ -> true
    | _ -> false
  in
  let rta sys =
    match E2e_periodic.Response_time.analyse sys with
    | E2e_periodic.Response_time.Schedulable _ -> true
    | _ -> false
  in
  List.iter
    (fun u ->
      let trial k =
        let g = Prng.of_path [| seed; fkey u; k |] in
        let sys = Gen.periodic g ~n:4 ~m:2 ~utilization:u in
        Obs.incr "experiments.instances";
        let verdicts = [| eq1 sys; edf sys; rta sys |] in
        Array.iter (fun ok -> if ok then Obs.incr "experiments.feasible_found") verdicts;
        verdicts
      in
      let rows = Pool.init ~jobs trials trial in
      let frac column =
        float_of_int (count_where (fun row -> row.(column)) rows) /. float_of_int trials
      in
      Format.fprintf ppf "%8.2f  %14.3f  %14.3f  %14.3f@." u (frac 0) (frac 1) (frac 2))
    [ 0.2; 0.3; 0.4; 0.45; 0.5; 0.55; 0.6; 0.7 ]

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5: periodic flow shops.                                *)

let print_periodic ppf sys =
  Format.fprintf ppf "%a@." Periodic_shop.pp sys;
  Array.iteri
    (fun j u -> Format.fprintf ppf "  u_%d = %a@." (j + 1) Rat.pp_decimal u)
    (Periodic_shop.utilizations sys)

let validate ppf sys deltas factor =
  let horizon = 20.0 *. Rat.to_float (Periodic_shop.hyperperiod sys) in
  let report =
    Pipeline_sim.simulate ~deadline_factor:factor ~horizon ~policy:(`Postponed_phases deltas) sys
  in
  Format.fprintf ppf
    "simulation (horizon %.0f): %d requests, %d precedence violations, %d deadline misses@."
    horizon report.Pipeline_sim.requests report.Pipeline_sim.precedence_violations
    report.Pipeline_sim.deadline_misses;
  Array.iteri
    (fun i resp ->
      Format.fprintf ppf "  J%d worst measured end-to-end %.3f  (analytic bound %.3f)@." (i + 1)
        resp
        (Analysis.response_bound sys deltas i))
    report.Pipeline_sim.end_to_end

let table4 ppf =
  Format.fprintf ppf "@.Table 4: periodic jobs schedulable by phase postponement@.";
  hr ppf;
  let sys = Paper.table4 () in
  print_periodic ppf sys;
  match Analysis.analyse sys with
  | Analysis.Schedulable { deltas; total } ->
      Format.fprintf ppf "delta_1 = %.3f, delta_2 = %.3f, sum = %.3f <= 1@." deltas.(0)
        deltas.(1) total;
      Array.iteri
        (fun i (job : Periodic_shop.job) ->
          let p = Rat.to_float job.Periodic_shop.period in
          Format.fprintf ppf
            "  J%d: phase on P2 postponed by delta_1 p = %.3f; completes within %.3f@." (i + 1)
            (deltas.(0) *. p)
            (total *. p))
        sys.Periodic_shop.jobs;
      validate ppf sys deltas 1.0;
      Format.fprintf ppf
        "(paper's surviving numbers: delta1 p = 3.3, 4.125, 6.6; J1 completes by 6.9)@.";
      (* Extension: exact response-time analysis is strictly tighter than
         Equation (1). *)
      (match E2e_periodic.Response_time.analyse sys with
      | E2e_periodic.Response_time.Schedulable { end_to_end; _ } ->
          Format.fprintf ppf "exact RTA end-to-end bounds:";
          Array.iter (fun r -> Format.fprintf ppf " %a" Rat.pp_decimal r) end_to_end;
          Format.fprintf ppf "  (Equation 1 gave 6.9, 8.625, 13.8)@."
      | v -> Format.fprintf ppf "RTA: %a@." E2e_periodic.Response_time.pp_verdict v)
  | v -> Format.fprintf ppf "unexpected verdict: %a@." Analysis.pp_verdict v

let table5 ppf =
  Format.fprintf ppf "@.Table 5: full pair needs deadlines postponed past the period@.";
  hr ppf;
  let sys = Paper.table5 () in
  print_periodic ppf sys;
  Format.fprintf ppf "single-processor Liu-Layland bound (n=2): u_max(1) = %.3f@."
    (Rm_bounds.liu_layland 2);
  Format.fprintf ppf
    "with end-of-period deadlines on an m-processor flow shop the per-processor cap is 1/m:@.";
  List.iter
    (fun m -> Format.fprintf ppf "  m = %d -> cap %.3f@." m (Analysis.per_processor_cap ~m))
    [ 1; 2; 4 ];
  match Analysis.analyse sys with
  | Analysis.Schedulable_postponed { deltas; total } ->
      Format.fprintf ppf
        "deltas = (%.3f, %.3f): sum %.3f > 1, so deadlines must be postponed ~%.1f%%@."
        deltas.(0) deltas.(1) total
        ((total -. 1.0) *. 100.0);
      validate ppf sys deltas total;
      Format.fprintf ppf "(paper: delta = 0.553 per processor, completion within 1.106 p_i)@.";
      (* Extension: per-processor EDF (density criterion) needs only
         delta = u = 0.55, slightly better than RM's 0.553. *)
      (match Analysis.analyse_policies ~policies:[| Analysis.Edf; Analysis.Edf |] sys with
      | Analysis.Schedulable_postponed { total = edf_total; _ } | Analysis.Schedulable { total = edf_total; _ } ->
          Format.fprintf ppf
            "with per-processor EDF instead of RM: postponement factor %.3f (vs %.3f)@."
            edf_total total
      | Analysis.Not_schedulable _ -> ());
      (* Extension: the exact busy-period analysis shows this pair in
         fact fits within the period — Equation (1)'s postponement is
         bound pessimism, not real lateness. *)
      (match E2e_periodic.Response_time.analyse sys with
      | E2e_periodic.Response_time.Schedulable { end_to_end; _ } ->
          Format.fprintf ppf "exact RTA: schedulable within the period (end-to-end";
          Array.iter (fun r -> Format.fprintf ppf " %a" Rat.pp_decimal r) end_to_end;
          Format.fprintf ppf " vs periods 2, 5)@."
      | v -> Format.fprintf ppf "exact RTA: %a@." E2e_periodic.Response_time.pp_verdict v)
  | v -> Format.fprintf ppf "unexpected verdict: %a@." Analysis.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Section 6: processor sharing.                                       *)

let section6 ppf =
  Format.fprintf ppf "@.Section 6: utilization-proportional processor sharing@.";
  hr ppf;
  let a = Paper.table4 () in
  let b =
    Periodic_shop.of_params
      [|
        (Rat.of_int 8, [| Rat.of_decimal_string "0.8"; Rat.of_decimal_string "0.6" |]);
        (Rat.of_int 40, [| Rat.of_int 4; Rat.of_int 2 |]);
      |]
  in
  Format.fprintf ppf "flow shop A:@.";
  print_periodic ppf a;
  Format.fprintf ppf "flow shop B:@.";
  print_periodic ppf b;
  for j = 0 to 1 do
    let shares = Partition.periodic_shares [ a; b ] ~processor:j in
    Format.fprintf ppf "P%d shares: A %a, B %a@." (j + 1) Rat.pp_decimal shares.(0)
      Rat.pp_decimal shares.(1)
  done;
  match Partition.partition_periodic [ a; b ] with
  | [ a'; b' ] ->
      List.iter
        (fun (name, sys) ->
          Format.fprintf ppf "@.%s on its virtual processors:@." name;
          print_periodic ppf sys;
          Format.fprintf ppf "  verdict: %a@." Analysis.pp_verdict (Analysis.analyse sys))
        [ ("A", a'); ("B", b') ]
  | _ -> assert false

let nonpermutation ppf =
  Format.fprintf ppf "@.Non-permutation witness (Section 4 remark)@.";
  hr ppf;
  Format.fprintf ppf
    "\"In flow shops with more than two processors it is possible that the order of@.execution of subtasks may vary from processor to processor in all feasible@.schedules.\"  A seeded search over random instances found:@.@.";
  let shop = Paper.non_permutation_witness () in
  Format.fprintf ppf "%a@.@." Flow_shop.pp shop;
  Format.fprintf ppf "feasible permutation orders (exhaustive search): %d@."
    (E2e_baselines.Exhaustive.count_feasible_orders shop);
  match E2e_baselines.Branch_bound.solve shop with
  | E2e_baselines.Branch_bound.Feasible s ->
      Format.fprintf ppf "branch-and-bound witness (non-permutation, feasible: %b):@.%a@."
        (Schedule.is_feasible s) Schedule.pp_table s;
      Format.fprintf ppf
        "=> Algorithm H, which only searches permutation schedules, cannot solve this@.instance no matter how it orders the bottleneck (its other failure cause).@."
  | _ -> Format.fprintf ppf "unexpected: oracle did not confirm feasibility@."

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let rate_of successes trials =
  Printf.sprintf "%.3f" (float_of_int successes /. float_of_int trials)

let ablation ?(sweep = { seed = 7; trials = 300; n_tasks = 6; n_processors = 4 }) ?(jobs = 1)
    ppf =
  Format.fprintf ppf "@.Ablations (%d trials each)@." sweep.trials;
  hr ppf;
  (* 1. Forbidden regions on/off, on random identical-length sets whose
     release times are not multiples of tau (the case where the paper
     needs the Garey et al. machinery).  EEDF is optimal, so its success
     rate is exactly the fraction of feasible instances; the gap to plain
     EDF is the value of the forbidden regions. *)
  let regions_trial k =
    let g = Prng.of_path [| sweep.seed; 1; k |] in
    let shop =
      Gen.identical_length g ~n:sweep.n_tasks ~m:sweep.n_processors ~tau:(Rat.make 3 2)
        ~window:(2 * sweep.n_tasks)
    in
    Obs.incr "experiments.instances";
    let with_regions = Result.is_ok (Eedf.schedule shop) in
    let without_regions =
      match Eedf.schedule_no_regions shop with
      | Ok s when Schedule.is_feasible s -> true
      | _ -> false
    in
    (with_regions, without_regions)
  in
  let rows = Pool.init ~jobs sweep.trials regions_trial in
  Format.fprintf ppf
    "EEDF on random identical-length sets:     with forbidden regions %s (= exact feasible fraction) | plain EDF %s@."
    (rate_of (count_where fst rows) sweep.trials)
    (rate_of (count_where snd rows) sweep.trials);
  (* 2. Compaction on/off and 3. bottleneck choice, on Figure-9 style
     sets.  Each trial judges one instance under every variant; columns
     index into the verdict array. *)
  let params =
    {
      Gen.n_tasks = sweep.n_tasks;
      n_processors = sweep.n_processors;
      mean_tau = 1.0;
      stdev = 0.5;
      slack_factor = 0.8;
    }
  in
  let variant_trial k =
    let g = Prng.of_path [| sweep.seed; 2; k |] in
    let shop = Gen.generate g params in
    Obs.incr "experiments.instances";
    let worst =
      let maxima = Flow_shop.max_proc_times shop in
      let best = ref 0 in
      for j = 1 to shop.Flow_shop.processors - 1 do
        if Rat.(maxima.(j) < maxima.(!best)) then best := j
      done;
      !best
    in
    [|
      Result.is_ok (Algo_h.run shop).Algo_h.result;
      Result.is_ok (Algo_h.run ~compact:false shop).Algo_h.result;
      Result.is_ok (Algo_h.run ~bottleneck:worst shop).Algo_h.result;
      Result.is_ok (E2e_core.H_portfolio.schedule shop);
      List_edf.feasible (Recurrence_shop.of_traditional shop);
      E2e_sim.Preemptive_flow_sim.feasible (Recurrence_shop.of_traditional shop);
      Option.is_some (E2e_baselines.Local_search.schedule shop);
    |]
  in
  let rows = Pool.init ~jobs sweep.trials variant_trial in
  let col i = rate_of (count_where (fun row -> row.(i)) rows) sweep.trials in
  Format.fprintf ppf
    "Algorithm H (stdev 0.5, slack 0.8):       full %s | no compaction %s | worst bottleneck %s | portfolio %s@."
    (col 0) (col 1) (col 2) (col 3);
  Format.fprintf ppf
    "other heuristics, same instances:         greedy list-EDF %s | preemptive EDF %s | local search %s@."
    (col 4) (col 5) (col 6);
  (* 4. H vs exhaustive permutation search: the two named causes of H's
     sub-optimality.  On feasible-by-construction instances (which always
     have a permutation witness) every H failure is a wrong bottleneck
     order, since a feasible permutation schedule provably exists. *)
  let n_small = min sweep.n_tasks 5 in
  let trials_small = min sweep.trials 200 in
  let exact_trial k =
    let g = Prng.of_path [| sweep.seed; 3; k |] in
    let shop =
      Gen.generate g
        {
          Gen.n_tasks = n_small;
          n_processors = 3;
          mean_tau = 1.0;
          stdev = 0.5;
          slack_factor = 0.8;
        }
    in
    (Result.is_ok (Algo_h.schedule shop), Exhaustive.permutation_feasible shop)
  in
  let rows = Pool.init ~jobs trials_small exact_trial in
  Format.fprintf ppf
    "H vs exhaustive on feasible sets (%dx3):   H %s | exhaustive permutation search %s (every H failure = wrong bottleneck order)@."
    n_small
    (rate_of (count_where fst rows) trials_small)
    (rate_of (count_where snd rows) trials_small)

let all ?(jobs = 1) ppf =
  table1 ppf;
  table2 ppf;
  table3 ppf;
  fig9a ~jobs ppf;
  fig9b ~jobs ppf;
  fig10 ~jobs ppf;
  table4 ppf;
  table5 ppf;
  section6 ppf;
  nonpermutation ppf;
  fig9_extensions ~jobs ppf;
  periodic_sweep ~jobs ppf;
  ablation ~jobs ppf
