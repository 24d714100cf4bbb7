module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Obs = E2e_obs.Obs

type verdict =
  | Feasible of Schedule.t * [ `Eedf | `Algorithm_a | `Algorithm_h ]
  | Proved_infeasible of [ `Eedf | `Algorithm_a ]
  | Heuristic_failed

let class_name = function
  | `Identical_length _ -> "identical_length"
  | `Homogeneous _ -> "homogeneous"
  | `Arbitrary -> "arbitrary"

let record_verdict verdict =
  (match verdict with
  | Feasible _ -> Obs.incr "solver.feasible"
  | Proved_infeasible _ -> Obs.incr "solver.proved_infeasible"
  | Heuristic_failed -> Obs.incr "solver.undecided");
  if Obs.enabled () then begin
    let algorithm, outcome =
      match verdict with
      | Feasible (_, `Eedf) -> ("eedf", "feasible")
      | Feasible (_, `Algorithm_a) -> ("algo_a", "feasible")
      | Feasible (_, `Algorithm_h) -> ("algo_h", "feasible")
      | Proved_infeasible `Eedf -> ("eedf", "proved_infeasible")
      | Proved_infeasible `Algorithm_a -> ("algo_a", "proved_infeasible")
      | Heuristic_failed -> ("algo_h", "undecided")
    in
    Obs.event "solver.verdict"
      ~fields:[ ("algorithm", Obs.Str algorithm); ("outcome", Obs.Str outcome) ]
  end;
  verdict

let solve_classified cls shop =
  match cls with
  | `Identical_length _ -> (
      match Eedf.schedule shop with
      | Ok s -> Feasible (s, `Eedf)
      | Error `Infeasible -> Proved_infeasible `Eedf
      | Error `Not_identical_length -> assert false)
  | `Homogeneous _ -> (
      match Algo_a.schedule shop with
      | Ok s -> Feasible (s, `Algorithm_a)
      | Error `Infeasible -> Proved_infeasible `Algorithm_a
      | Error `Not_homogeneous -> assert false)
  | `Arbitrary -> (
      match Algo_h.schedule shop with
      | Ok s -> Feasible (s, `Algorithm_h)
      | Error (`Inflated_infeasible | `Compacted_infeasible _) -> Heuristic_failed)

let solve shop =
  let cls = Flow_shop.classify shop in
  Obs.span "solver.solve"
    ~fields:
      [ ("class", Obs.Str (class_name cls)); ("tasks", Obs.Int (Flow_shop.n_tasks shop)) ]
    (fun () -> record_verdict (solve_classified cls shop))

(* {2 Incremental capability}

   A resident handle onto the identical-length (EEDF) solve of one flow
   shop: the reduced single-machine instance is kept as a warm-started
   {!Single_machine.Inc.state}, and a superset shop obtained by admitting
   more tasks is re-solved by [add_task] deltas instead of from scratch.
   The verdicts are byte-identical to {!solve} on the same shop — EEDF
   is deterministic, the cold [Single_machine.schedule] is a
   from-scratch [Single_machine.Inc] run, and warm edits agree exactly
   with from-scratch runs (the [eedf-fast] and [eedf-inc] fuzz classes
   check both against the scan-based reference) — so callers may
   freely mix this path with cold solves. *)
module Incremental = struct
  type t = { tau : E2e_rat.Rat.t; m : int; inc : Single_machine.Inc.state }

  let of_flow_shop (shop : Flow_shop.t) =
    match Flow_shop.is_identical_length shop with
    | None -> None
    | Some tau ->
        let jobs = Eedf.single_machine_jobs shop ~tau in
        Some { tau; m = shop.processors; inc = Single_machine.Inc.make ~tau jobs }

  let resident t = Single_machine.Inc.n_jobs t.inc

  let verdict t (shop : Flow_shop.t) =
    record_verdict
      (match Single_machine.Inc.solve t.inc with
      | Error `Infeasible -> Proved_infeasible `Eedf
      | Ok starts -> Feasible (Eedf.propagate shop ~tau:t.tau starts, `Eedf))

  (* Grow the resident state to [shop], a shop whose job list contains
     the resident jobs as a subsequence (the admission cache's stable
     merge guarantees exactly this for committed + fresh tasks).  Jobs
     are matched on the reduced-instance key (release, effective
     deadline): equal jobs are interchangeable for the single-machine
     solve, so greedy earliest-match subsequence testing is exact.
     [None] when [shop] is not an extension (different tau / processors,
     or the resident jobs are not a subsequence) — caller falls back to
     a cold solve. *)
  let extend t (shop : Flow_shop.t) =
    match Flow_shop.is_identical_length shop with
    | Some tau when E2e_rat.Rat.equal tau t.tau && shop.processors = t.m ->
        let new_jobs = Eedf.single_machine_jobs shop ~tau in
        let old_jobs = Single_machine.Inc.jobs t.inc in
        let n_new = Array.length new_jobs and n_old = Array.length old_jobs in
        if n_new < n_old then None
        else begin
          let same (a : Single_machine.job) (b : Single_machine.job) =
            E2e_rat.Rat.equal a.release b.release
            && E2e_rat.Rat.equal a.deadline b.deadline
          in
          let fresh = ref [] in
          let oi = ref 0 in
          Array.iteri
            (fun ni j ->
              if !oi < n_old && same old_jobs.(!oi) j then incr oi
              else fresh := ni :: !fresh)
            new_jobs;
          if !oi < n_old then None
          else begin
            let inc =
              List.fold_left
                (fun inc ni ->
                  let j = new_jobs.(ni) in
                  Single_machine.Inc.add_task inc ~at:ni ~release:j.release
                    ~deadline:j.deadline)
                t.inc (List.rev !fresh)
            in
            Some { t with inc }
          end
        end
    | _ -> None

  let solve_with_state shop =
    let cls = Flow_shop.classify shop in
    Obs.span "solver.solve"
      ~fields:
        [ ("class", Obs.Str (class_name cls)); ("tasks", Obs.Int (Flow_shop.n_tasks shop)) ]
      (fun () ->
        match cls with
        | `Identical_length tau ->
            let jobs = Eedf.single_machine_jobs shop ~tau in
            let t = { tau; m = shop.processors; inc = Single_machine.Inc.make ~tau jobs } in
            let v = verdict t shop in
            let state = match v with Feasible _ -> Some t | _ -> None in
            (v, state)
        | (`Homogeneous _ | `Arbitrary) as cls ->
            (record_verdict (solve_classified cls shop), None))
end

let solve_recurrent (shop : Recurrence_shop.t) =
  if Visit.is_traditional shop.Recurrence_shop.visit then
    let fs = Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks in
    match solve fs with
    | Feasible (s, _) -> Ok s
    | Proved_infeasible _ | Heuristic_failed -> Error `Infeasible
  else Algo_r.schedule shop

type recurrent_verdict =
  | Recurrent_feasible of Schedule.t * [ `Algorithm_r | `Greedy_edf | `Traditional ]
  | Recurrent_proved_infeasible
  | Recurrent_undecided

let solve_recurrent_or_fallback (shop : Recurrence_shop.t) =
  if Visit.is_traditional shop.Recurrence_shop.visit then
    let fs = Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks in
    match solve fs with
    | Feasible (s, _) -> Recurrent_feasible (s, `Traditional)
    | Proved_infeasible _ -> Recurrent_proved_infeasible
    | Heuristic_failed -> Recurrent_undecided
  else
    match Algo_r.schedule shop with
    | Ok s -> Recurrent_feasible (s, `Algorithm_r)
    | Error `Infeasible -> Recurrent_proved_infeasible
    | Error (`Not_identical_unit | `Not_identical_release | `No_single_loop) ->
        let s = Greedy_edf.schedule shop in
        if Schedule.is_feasible s then Recurrent_feasible (s, `Greedy_edf)
        else Recurrent_undecided

let pp_verdict ppf = function
  | Feasible (_, `Eedf) -> Format.pp_print_string ppf "feasible (EEDF, optimal)"
  | Feasible (_, `Algorithm_a) -> Format.pp_print_string ppf "feasible (Algorithm A, optimal)"
  | Feasible (_, `Algorithm_h) -> Format.pp_print_string ppf "feasible (Algorithm H, heuristic)"
  | Proved_infeasible `Eedf -> Format.pp_print_string ppf "infeasible (proved by EEDF)"
  | Proved_infeasible `Algorithm_a -> Format.pp_print_string ppf "infeasible (proved by Algorithm A)"
  | Heuristic_failed -> Format.pp_print_string ppf "undecided (Algorithm H failed)"
