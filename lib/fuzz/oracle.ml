module Rat = E2e_rat.Rat
module Visit = E2e_model.Visit
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Eedf = E2e_core.Eedf
module Algo_r = E2e_core.Algo_r
module Algo_a = E2e_core.Algo_a
module Algo_h = E2e_core.Algo_h
module H_portfolio = E2e_core.H_portfolio
module Solver = E2e_core.Solver
module Exhaustive = E2e_baselines.Exhaustive
module Branch_bound = E2e_baselines.Branch_bound
module Exhaustive_recurrence = E2e_baselines.Exhaustive_recurrence

type kind =
  | Invalid_schedule
  | Claimed_infeasible
  | Claimed_feasible
  | Precondition
  | Divergence
  | Crash of string

type outcome = Agree | Skip of string | Bug of { kind : kind; detail : string }

let is_bug = function Bug _ -> true | Agree | Skip _ -> false

let pp_kind ppf = function
  | Invalid_schedule -> Format.pp_print_string ppf "schedule-invalid"
  | Claimed_infeasible -> Format.pp_print_string ppf "claimed-infeasible-but-oracle-feasible"
  | Claimed_feasible -> Format.pp_print_string ppf "claimed-feasible-but-oracle-infeasible"
  | Precondition -> Format.pp_print_string ppf "precondition-violation"
  | Divergence -> Format.pp_print_string ppf "engine-divergence"
  | Crash e -> Format.fprintf ppf "crash (%s)" e

let pp_outcome ppf = function
  | Agree -> Format.pp_print_string ppf "agree"
  | Skip m -> Format.fprintf ppf "skip (%s)" m
  | Bug { kind; detail } -> Format.fprintf ppf "BUG %a: %s" pp_kind kind detail

let bug kind fmt = Format.kasprintf (fun detail -> Bug { kind; detail }) fmt

(* The reference checker's verdict on a returned schedule: the
   rational one, so the eedf/a/h classes test the solvers' int pipeline
   against code that shares none of it. *)
let invalid s =
  match Schedule.violations_ref s with
  | [] -> None
  | vs ->
      Some
        (Format.asprintf "%a"
           (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
              Schedule.pp_violation)
           vs)

(* Keeping the node budget well below the default makes 2000-trial
   campaigns cheap; exhaustion is a Skip, not a verdict. *)
let bb_budget = 60_000

let all_schedules_feasible fs =
  match Branch_bound.feasible ~budget:bb_budget fs with
  | Some b -> Ok b
  | None -> Error "branch-and-bound budget exhausted"

let to_flow_shop (shop : Recurrence_shop.t) =
  if not (Visit.is_traditional shop.visit) then None
  else Some (Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks)

(* Shared shape of the two optimal traditional-shop algorithms: a
   claimed-optimal solver against the all-schedules oracle. *)
let run_optimal ~solver_name ~schedule fs =
  match schedule fs with
  | `Ok s -> (
      match invalid s with
      | Some v -> bug Invalid_schedule "%s schedule rejected by checker: %s" solver_name v
      | None -> (
          match all_schedules_feasible fs with
          | Ok true | Error _ -> Agree
          | Ok false ->
              bug Claimed_feasible
                "%s returned a checker-clean schedule on an instance branch and bound proves \
                 infeasible"
                solver_name))
  | `Infeasible -> (
      match all_schedules_feasible fs with
      | Ok false -> Agree
      | Ok true ->
          bug Claimed_infeasible "%s claims infeasible; branch and bound found a schedule"
            solver_name
      | Error m -> Skip m)
  | `Precondition p -> bug Precondition "%s rejected a generated instance: %s" solver_name p

let run_eedf fs =
  run_optimal ~solver_name:"EEDF"
    ~schedule:(fun fs ->
      match Eedf.schedule fs with
      | Ok s -> `Ok s
      | Error `Infeasible -> `Infeasible
      | Error `Not_identical_length -> `Precondition "not identical-length")
    fs

let run_a fs =
  run_optimal ~solver_name:"Algorithm A"
    ~schedule:(fun fs ->
      match Algo_a.schedule fs with
      | Ok s -> `Ok s
      | Error `Infeasible -> `Infeasible
      | Error `Not_homogeneous -> `Precondition "not homogeneous")
    fs

let run_r (shop : Recurrence_shop.t) =
  let oracle () =
    match Exhaustive_recurrence.feasible shop with
    | b -> Ok b
    | exception Invalid_argument m -> Error m
  in
  match Algo_r.schedule shop with
  | Ok s -> (
      match invalid s with
      | Some v -> bug Invalid_schedule "Algorithm R schedule rejected by checker: %s" v
      | None -> (
          match oracle () with
          | Ok true | Error _ -> Agree
          | Ok false ->
              bug Claimed_feasible
                "Algorithm R returned a checker-clean schedule the exhaustive oracle proves \
                 infeasible"))
  | Error `Infeasible -> (
      match oracle () with
      | Ok true ->
          bug Claimed_infeasible "Algorithm R claims infeasible; exhaustive search found a \
                                  schedule"
      | Ok false -> Agree
      | Error m -> Skip m)
  | Error e -> bug Precondition "Algorithm R rejected a generated instance: %a" Algo_r.pp_error e

(* Algorithm H and friends.  H may fail on feasible instances (the paper
   names the two causes), so only positive claims are falsifiable. *)
let run_h fs =
  let permutation_oracle () =
    match Exhaustive.permutation_feasible fs with
    | b -> Ok b
    | exception Invalid_argument m -> Error m
  in
  let h_verdict =
    match Algo_h.schedule fs with
    | Ok s -> (
        match invalid s with
        | Some v -> bug Invalid_schedule "Algorithm H schedule rejected by checker: %s" v
        | None -> (
            (* A feasible compacted schedule is a permutation schedule, so
               the earliest-start schedule of its order must be feasible
               too — the permutation oracle has to find it. *)
            match permutation_oracle () with
            | Ok true | Error _ -> Agree
            | Ok false ->
                bug Claimed_feasible
                  "Algorithm H returned a feasible schedule but the exhaustive oracle finds no \
                   feasible permutation order"))
    | Error `Inflated_infeasible -> Agree
    | Error (`Compacted_infeasible s) ->
        (* H gave up because its own compacted schedule is infeasible; the
           attached witness must indeed violate a constraint. *)
        if Schedule.violations_ref s = [] then
          bug Invalid_schedule
            "Algorithm H reported its compacted schedule infeasible, but the checker accepts it"
        else Agree
  in
  let portfolio_verdict () =
    match H_portfolio.schedule_opt fs with
    | None -> Agree
    | Some s -> (
        match invalid s with
        | Some v -> bug Invalid_schedule "portfolio schedule rejected by checker: %s" v
        | None -> Agree)
  in
  let solver_verdict () =
    match Solver.solve fs with
    | Solver.Feasible (s, _) -> (
        match invalid s with
        | Some v -> bug Invalid_schedule "solver front-end schedule rejected by checker: %s" v
        | None -> Agree)
    | Solver.Proved_infeasible _ -> (
        match all_schedules_feasible fs with
        | Ok true ->
            bug Claimed_infeasible
              "solver front end proved infeasible; branch and bound found a schedule"
        | Ok false | Error _ -> Agree)
    | Solver.Heuristic_failed -> Agree
  in
  match h_verdict with
  | Bug _ as b -> b
  | first -> (
      match portfolio_verdict () with
      | Bug _ as b -> b
      | _ -> ( match solver_verdict () with Bug _ as b -> b | _ -> first))

(* {1 Single-machine differentials}

   The [eedf-fast] class pits {!E2e_core.Single_machine}
   against the retained scan-based {!Single_machine_ref} on the EEDF
   reduction of the instance.  Every output must match under exact
   rational equality; there is no tolerance and no oracle budget, so
   any mismatch is a bug. *)
module SM = E2e_core.Single_machine

(* The single-machine reductions on the rationals, independently of the
   solvers' grid pipeline: EEDF's first stage (deadlines less the m-1
   later stages) and Algorithm A's bottleneck stage (windows shrunk by
   the stages before and after it). *)
let eedf_jobs (shop : Flow_shop.t) ~tau =
  Array.map
    (fun (task : E2e_model.Task.t) ->
      {
        SM.id = task.id;
        release = task.release;
        deadline = Rat.sub task.deadline (Rat.mul_int tau (shop.processors - 1));
      })
    shop.tasks

let bottleneck_jobs (shop : Flow_shop.t) ~bottleneck =
  Array.map
    (fun (task : E2e_model.Task.t) ->
      let before = ref Rat.zero and after = ref Rat.zero in
      Array.iteri
        (fun j tau ->
          if j < bottleneck then before := Rat.add !before tau
          else if j > bottleneck then after := Rat.add !after tau)
        task.proc_times;
      {
        SM.id = task.id;
        release = Rat.add task.release !before;
        deadline = Rat.sub task.deadline !after;
      })
    shop.tasks

let to_ref (jobs : SM.job array) =
  Array.map
    (fun (j : SM.job) ->
      { Single_machine_ref.id = j.id; release = j.release; deadline = j.deadline })
    jobs

let pp_rats ppf rs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    (fun ppf r -> Format.pp_print_string ppf (Rat.to_string r))
    ppf (Array.to_list rs)

let pp_regions pp ppf rs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp ppf rs

let pp_ref_region ppf (r : Single_machine_ref.region) =
  Format.fprintf ppf "(%s, %s)" (Rat.to_string r.left) (Rat.to_string r.right)

let starts_equal a b = Array.length a = Array.length b && Array.for_all2 Rat.equal a b

(* [what] prefixes every message: the output compared. *)
let regions_verdict ~what engine reference =
  match (engine, reference) with
  | Error `Infeasible, Error `Infeasible -> Agree
  | Ok e, Ok r ->
      let same =
        List.length e = List.length r
        && List.for_all2
             (fun (a : SM.region) (b : Single_machine_ref.region) ->
               Rat.equal a.left b.left && Rat.equal a.right b.right)
             e r
      in
      if same then Agree
      else
        bug Divergence "%s: forbidden regions differ: engine [%a] vs ref [%a]" what
          (pp_regions SM.pp_region) e (pp_regions pp_ref_region) r
  | Ok _, Error `Infeasible ->
      bug Divergence "%s: engine built regions where the reference proves infeasible" what
  | Error `Infeasible, Ok _ ->
      bug Divergence "%s: engine claims infeasible during regions; reference succeeds" what

let schedule_verdict ~what engine reference =
  match (engine, reference) with
  | Error `Infeasible, Error `Infeasible -> Agree
  | Ok e, Ok r ->
      if starts_equal e r then Agree
      else bug Divergence "%s: schedules differ: engine [%a] vs ref [%a]" what pp_rats e pp_rats r
  | Ok _, Error `Infeasible ->
      bug Divergence "%s: engine schedules an instance the reference rejects" what
  | Error `Infeasible, Ok _ ->
      bug Divergence "%s: engine rejects an instance the reference schedules" what

let first_bug verdicts =
  List.fold_left (fun acc v -> match acc with Bug _ -> acc | _ -> v ()) Agree verdicts

(* The engine's documented grid bound, evaluated independently of it:
   L, the lcm of every denominator, and B = 4M + (n+1)T in scaled units
   (M the largest release or deadline magnitude, T = tau L) must both
   stay within max_int / 2.  Products are formed in floats, so a value
   within a relative 1e-9 of the limit decides nothing ([`Edge]). *)
let grid_fit ~tau (jobs : SM.job array) =
  let limit = float_of_int (max_int / 2) in
  let over x = x > limit *. (1. +. 1e-9) and under x = x < limit *. (1. -. 1e-9) in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let lcm l d =
    match l with
    | `Fits l ->
        let f = l / gcd l d in
        let p = float_of_int f *. float_of_int d in
        if under p then `Fits (f * d) else if over p then `Over else `Edge
    | (`Over | `Edge) as v -> v
  in
  let dens =
    Rat.den tau
    :: List.concat_map (fun (j : SM.job) -> [ Rat.den j.release; Rat.den j.deadline ])
         (Array.to_list jobs)
  in
  match List.fold_left lcm (`Fits 1) dens with
  | (`Over | `Edge) as v -> v
  | `Fits l ->
      let scaled x = Float.abs (float_of_int (Rat.num x) *. float_of_int (l / Rat.den x)) in
      let m =
        Array.fold_left
          (fun m (j : SM.job) -> Float.max m (Float.max (scaled j.release) (scaled j.deadline)))
          0. jobs
      in
      let b = (4. *. m) +. (float_of_int (Array.length jobs + 1) *. scaled tau) in
      if under b then `Fits l else if over b then `Over else `Edge

(* One-shot entry points: regions, optimal starts and the plain-EDF
   ablation on the caller's ids.  Within the grid bound every output
   must equal the reference's; past it every entry point must refuse
   with [Rat.Overflow], and that refusal is the agreeing answer. *)
let run_eedf_fast fs =
  match Flow_shop.is_identical_length fs with
  | None -> bug Precondition "eedf-fast generator produced a non-identical-length shop"
  | Some tau -> (
      let jobs = eedf_jobs fs ~tau in
      let ref_jobs = to_ref jobs in
      let attempt f = match f () with v -> Some v | exception Rat.Overflow -> None in
      match
        ( grid_fit ~tau jobs,
          attempt (fun () -> SM.forbidden_regions ~tau jobs),
          attempt (fun () -> SM.schedule ~tau jobs),
          attempt (fun () -> SM.edf_schedule_no_regions ~tau jobs) )
      with
      | (`Over | `Edge), None, None, None -> Agree
      | (`Fits _ | `Edge), Some regions, Some starts, Some plain ->
          let ablation_verdict () =
            match (plain, Single_machine_ref.edf_schedule_no_regions ~tau ref_jobs) with
            | Error (`Deadline_missed i), Error (`Deadline_missed i') ->
                if i = i' then Agree
                else
                  bug Divergence "plain EDF misses different first deadlines: engine %d vs ref %d"
                    i i'
            | Ok e, Ok r ->
                if starts_equal e r then Agree
                else
                  bug Divergence "plain-EDF schedules differ: engine [%a] vs ref [%a]" pp_rats e
                    pp_rats r
            | Ok _, Error (`Deadline_missed i) ->
                bug Divergence "plain EDF: engine meets all deadlines, reference misses job %d" i
            | Error (`Deadline_missed i), Ok _ ->
                bug Divergence "plain EDF: engine misses job %d, reference meets all deadlines" i
          in
          first_bug
            [
              (fun () ->
                regions_verdict ~what:"regions" regions
                  (Single_machine_ref.forbidden_regions ~tau ref_jobs));
              (fun () ->
                schedule_verdict ~what:"schedule" starts
                  (Single_machine_ref.schedule ~tau ref_jobs));
              ablation_verdict;
            ]
      | `Fits _, _, _, _ -> bug Divergence "the engine refuses an instance within the grid bound"
      | `Over, _, _, _ -> bug Divergence "the engine answers an instance past the grid bound"
      | `Edge, _, _, _ ->
          bug Divergence "the entry points disagree on whether the instance fits the grid")

let run cls (shop : Recurrence_shop.t) =
  let traditional run_fs =
    match to_flow_shop shop with
    | Some fs -> run_fs fs
    | None -> Skip "visit sequence is not traditional"
  in
  match
    match cls with
    | Gen.Eedf -> traditional run_eedf
    | Gen.A -> traditional run_a
    | Gen.H -> traditional run_h
    | Gen.R -> run_r shop
    | Gen.Eedf_fast -> traditional run_eedf_fast
  with
  | outcome -> outcome
  | exception exn -> Bug { kind = Crash (Printexc.to_string exn); detail = "solver raised" }
