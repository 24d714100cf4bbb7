module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Periodic_shop = E2e_model.Periodic_shop
module Schedule = E2e_schedule.Schedule

let r = Rat.of_int
let dec = Rat.of_decimal_string

let table1 () =
  let visit = Visit.of_one_based [| 1; 2; 3; 4; 2; 3; 5 |] in
  let k = Visit.length visit in
  let deadlines = [| 10; 12; 14; 16 |] in
  let tasks =
    Array.mapi
      (fun id d ->
        Task.make ~id ~release:Rat.zero ~deadline:(r d) ~proc_times:(Array.make k Rat.one))
      deadlines
  in
  Recurrence_shop.make ~visit tasks

let table2 () =
  let taus = [| r 2; r 3; r 4; r 2 |] in
  let params =
    [|
      (r 0, r 17); (r 1, r 21); (r 3, r 25); (r 6, r 29);
    |]
  in
  Flow_shop.make ~processors:4
    (Array.mapi
       (fun id (release, deadline) ->
         Task.make ~id ~release ~deadline ~proc_times:(Array.copy taus))
       params)

(* Figure 8's situation: before compaction the schedule produced from the
   inflated task set misses a deadline and violates a release time; after
   compaction it is feasible.  We search deterministically for the first
   generated instance exhibiting exactly that, so the "table" is stable
   across runs. *)
let table3 =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some shop -> shop
    | None ->
        let params =
          {
            Feasible_gen.n_tasks = 5;
            n_processors = 4;
            mean_tau = 1.0;
            stdev = 0.5;
            slack_factor = 0.8;
          }
        in
        let rec search seed =
          if seed > 100_000 then failwith "Paper_instances.table3: search exhausted"
          else
            let g = Prng.create seed in
            let shop = Feasible_gen.generate g params in
            let report = E2e_core.Algo_h.run shop in
            match (report.E2e_core.Algo_h.raw, report.E2e_core.Algo_h.result) with
            | Some (lazy raw), Ok _ ->
                let vs = Schedule.violations raw in
                let misses_deadline =
                  List.exists (function Schedule.Deadline_missed _ -> true | _ -> false) vs
                in
                let violates_release =
                  List.exists (function Schedule.Release_violated _ -> true | _ -> false) vs
                in
                if misses_deadline && violates_release then shop else search (seed + 1)
            | _ -> search (seed + 1)
        in
        let shop = search 1 in
        memo := Some shop;
        shop

(* Feasible, but only by a non-permutation schedule: found by comparing
   the exact branch-and-bound oracle against the permutation-only
   exhaustive search over a deterministic seed sequence. *)
let non_permutation_witness =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some shop -> shop
    | None ->
        let rec search seed =
          if seed > 100_000 then failwith "Paper_instances.non_permutation_witness: exhausted"
          else
            let g = Prng.create seed in
            let shop = Feasible_gen.arbitrary g ~n:4 ~m:3 ~max_tau:3 ~window:3 in
            if not (E2e_baselines.Exhaustive.permutation_feasible shop) then
              match E2e_baselines.Branch_bound.solve ~budget:200_000 shop with
              | E2e_baselines.Branch_bound.Feasible _ -> shop
              | _ -> search (seed + 1)
            else search (seed + 1)
        in
        let shop = search 1 in
        memo := Some shop;
        shop

let table4 () =
  Periodic_shop.of_params
    [|
      (r 10, [| dec "1.1"; dec "1.6" |]);
      (Rat.make 25 2, [| dec "1.5"; dec "1.25" |]);
      (r 20, [| dec "2.0"; dec "2.0" |]);
    |]

let table5 () =
  Periodic_shop.of_params
    [|
      (r 2, [| dec "0.5"; dec "0.5" |]);
      (r 5, [| dec "1.5"; dec "1.5" |]);
    |]
