module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Solver = E2e_core.Solver
module H_portfolio = E2e_core.H_portfolio
module Infeasibility = E2e_core.Infeasibility
module Obs = E2e_obs.Obs
module Smap = Map.Make (String)

type rat = Rat.t

type budget = Unbounded | Strategies of int

type decision =
  | Admitted of { schedule : Schedule.t; algo : string }
  | Rejected of { certificate : Infeasibility.certificate option }
  | Undecided of { reason : string }

(* Each committed shop carries the canonical form of its committed task
   set, so the next Add re-solve starts from the already-sorted
   committed order (Cache.merge) instead of canonicalizing the whole
   merged candidate from scratch — plus the portfolio strategy that
   last admitted it, which the next full solve tries first.  The hint is
   decision-transparent: it is part of the cache key, so entries with
   and without one always produce the same replies. *)
type entry = { shop : Recurrence_shop.t; canon : Cache.canonical; hint : H_portfolio.strategy option }
type t = entry Smap.t

type request =
  | Submit of { shop : string; instance : Recurrence_shop.t }
  | Add of { shop : string; tasks : (rat * rat * rat array) list }
  | Query of { shop : string }
  | Drop of { shop : string }

type reply =
  | Decided of { shop : string; n_tasks : int; decision : decision }
  | Queried of { shop : string; n_tasks : int option }
  | Dropped of { shop : string; existed : bool }
  | Request_error of { shop : string; message : string }

let empty = Smap.empty
let shops t = List.map (fun (name, e) -> (name, e.shop)) (Smap.bindings t)
let n_committed t = Smap.fold (fun _ e acc -> acc + Recurrence_shop.n_tasks e.shop) t 0

let record_decision = function
  | Admitted _ -> Obs.incr "serve.admitted"
  | Rejected _ -> Obs.incr "serve.rejected"
  | Undecided _ -> Obs.incr "serve.undecided"

let algo_name = function
  | `Eedf -> "eedf"
  | `Algorithm_a -> "algo_a"
  | `Algorithm_h -> "algo_h"

(* The solver budget ran out before any strategy produced an answer —
   the deadline-oriented overload signal ([serve.budget_exhausted]). *)
let budget_exhausted () =
  Obs.incr "serve.budget_exhausted";
  Undecided { reason = "budget-exhausted" }

(* One candidate set, no cache: the strongest applicable algorithm, then
   certificates and the portfolio on the NP-hard path.  Pure, so batched
   solves can run on worker domains.  Returns the winning strategy on
   the portfolio path alongside the decision.  [hint] warm-starts the
   portfolio (it is part of the cache key, so hinted and unhinted solves
   never alias). *)
let solve_full budget ?hint (shop : Recurrence_shop.t) =
  Obs.incr "serve.solves";
  if Visit.is_traditional shop.Recurrence_shop.visit then begin
    let fs = Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks in
    match Solver.solve fs with
    | Solver.Feasible (s, alg) -> (Admitted { schedule = s; algo = algo_name alg }, None)
    | Solver.Proved_infeasible _ -> (Rejected { certificate = Infeasibility.check fs }, None)
    | Solver.Heuristic_failed -> (
        (* Portfolio first, certificate second: an infeasibility
           certificate implies every strategy fails, so the two tests
           can never both succeed and the order only affects cost.  The
           portfolio succeeds on the overwhelming majority of H
           failures and is ~5x cheaper than the certificate search, so
           the expensive test runs only on the rare all-failed path.
           Decisions are identical either way, including under a
           strategy budget (a budget-truncated portfolio failure still
           reaches the same certificate check before giving up). *)
        let portfolio ?budget () =
          match H_portfolio.schedule ?budget ?hint fs with
          | Ok (s, strat) ->
              Some (Admitted { schedule = s; algo = "portfolio" }, Some strat)
          | Error `All_failed -> None
        in
        let rejected_or fallback =
          match Infeasibility.check fs with
          | Some cert -> (Rejected { certificate = Some cert }, None)
          | None -> fallback ()
        in
        match budget with
        | Strategies 0 -> rejected_or (fun () -> (budget_exhausted (), None))
        | Strategies k -> (
            match portfolio ~budget:k () with
            | Some r -> r
            | None -> rejected_or (fun () -> (budget_exhausted (), None)))
        | Unbounded -> (
            match portfolio () with
            | Some r -> r
            | None ->
                rejected_or (fun () -> (Undecided { reason = "heuristic-failed" }, None))))
  end
  else
    match Solver.solve_recurrent_or_fallback shop with
    | Solver.Recurrent_feasible (s, which) ->
        let algo =
          match which with
          | `Algorithm_r -> "algo_r"
          | `Greedy_edf -> "greedy_edf"
          | `Traditional -> "solver"
        in
        (Admitted { schedule = s; algo }, None)
    | Solver.Recurrent_proved_infeasible -> (Rejected { certificate = None }, None)
    | Solver.Recurrent_undecided -> (Undecided { reason = "heuristic-failed" }, None)

(* Relabel a decision computed on the canonical shop back to the
   candidate's task ids.  Feasibility is invariant under the relabelling
   (all constraints are per-task or set-based), so the restored schedule
   passes the checker exactly when the canonical one does. *)
let relabel canon (shop : Recurrence_shop.t) = function
  | Admitted { schedule; algo } ->
      let starts = Cache.restore_starts canon schedule.Schedule.starts in
      Admitted { schedule = Schedule.make shop starts; algo }
  | (Rejected _ | Undecided _) as d -> d

(* Independent re-verification of an admitted schedule against the
   checker, after relabelling and before commit — the "verify" stage of
   the serve pipeline.  The solvers construct feasible schedules and
   relabelling preserves feasibility, so a failure here means a solver
   or relabelling bug: it is counted ([serve.verify_failures]) and the
   request is downgraded to [Undecided] rather than committing an
   unverified schedule.  Both the batched and the sequential reference
   path run this, so the differential harnesses stay in agreement. *)
let verify_decision = function
  | Admitted { schedule; _ } as d -> (
      match Schedule.check schedule with
      | Ok () -> d
      | Error _ ->
          Obs.incr "serve.verify_failures";
          Undecided { reason = "verify-failed" })
  | (Rejected _ | Undecided _) as d -> d

(* What the cache stores: the pre-verify canonical decision plus the
   portfolio strategy that produced it (when one did).  The hint must
   ride along so a cache hit commits the same warm-start state as the
   solve it stands in for — otherwise cached and uncached runs would
   hint future solves differently and could diverge. *)
type solved = { decision : decision; hint : H_portfolio.strategy option }

(* The budget is part of the cache key: a set undecided under a small
   budget may be admitted under a larger one, so decisions taken under
   different budgets must never alias.  So is the warm-start hint: the
   hint reorders the portfolio and changes which strategy wins, so
   hinted and unhinted solves of the same canonical set are distinct
   decisions. *)
let budget_tag = function Unbounded -> "u" | Strategies k -> "s" ^ string_of_int k

let hint_tag = function
  | None -> ""
  | Some h -> ":h" ^ H_portfolio.strategy_code h

let cache_key ~budget ?hint canon =
  Lazy.force canon.Cache.key ^ ":" ^ budget_tag budget ^ hint_tag hint

let request_error shop message =
  Obs.incr "serve.request_errors";
  Request_error { shop; message }

(* The per-request exception boundary.  A request whose own computation
   raises — [Rat.Overflow] on magnitudes the parser admits, say — is
   answered [error shop=<s> internal] and never committed; the caller
   goes on with the next request.  [Out_of_memory] is not the request's
   fault and propagates. *)
let guard f x =
  match f x with
  | v -> Ok v
  | exception (Out_of_memory as e) -> raise e
  | exception _ -> Error ()

let internal_error shop =
  Obs.incr "serve.internal_failures";
  Request_error { shop; message = "internal" }

let fresh_tasks (committed : Recurrence_shop.t) tasks =
  let n = Recurrence_shop.n_tasks committed in
  Array.of_list
    (List.mapi
       (fun i (release, deadline, proc_times) ->
         Task.make ~id:(n + i) ~release ~deadline ~proc_times)
       tasks)

let merge_candidate (committed : Recurrence_shop.t) tasks =
  Recurrence_shop.make ~visit:committed.visit
    (Array.append committed.tasks (fresh_tasks committed tasks))

type prepared = {
  candidate : Recurrence_shop.t;
  canon : Cache.canonical;
  hint : H_portfolio.strategy option;
  is_add : bool;
}

let prepare ?keyer t = function
  | Submit { shop; instance } ->
      if Smap.mem shop t then
        Error (request_error shop "shop already exists; add to it or drop it first")
      else
        let canon =
          match keyer with
          | Some k -> Cache.Keyer.canonicalize k instance
          | None -> Cache.canonicalize instance
        in
        Ok { candidate = instance; canon; hint = None; is_add = false }
  | Add { shop; tasks } -> (
      match Smap.find_opt shop t with
      | None -> Error (request_error shop "unknown shop")
      | Some _ when tasks = [] -> Error (request_error shop "add expects at least one task")
      | Some { shop = committed; canon = base; hint } -> (
          match merge_candidate committed tasks with
          | candidate ->
              (* The committed side arrives pre-sorted: only the handful
                 of fresh tasks pays the sort. *)
              Ok
                {
                  candidate;
                  canon = Cache.merge ~base (fresh_tasks committed tasks);
                  hint;
                  is_add = true;
                }
          | exception Invalid_argument m -> Error (request_error shop m)))
  | Query { shop } ->
      Error
        (Queried
           { shop; n_tasks = Option.map (fun e -> Recurrence_shop.n_tasks e.shop) (Smap.find_opt shop t) })
  | Drop { shop } -> Error (Dropped { shop; existed = Smap.mem shop t })

let hint_of p = p.hint
let state_of_cached (s : solved) = s.hint

(* The hinted full solve for one prepared candidate, on its canonical
   form.  Pure, so batched misses can run on worker domains.  The
   strategy is returned twice, inside [solved] and beside it, for
   callers that commit it without the cache. *)
let solve_prepared ~budget p =
  let decision, hint = solve_full budget ?hint:p.hint p.canon.Cache.shop in
  ({ decision; hint }, hint)

(* Not called in lib/ or bin/: kept for the benchmark's traced replay,
   which times identical-length adds apart.  For such a shop
   [Solver.solve] goes straight to EEDF and never fails heuristically,
   so the result is exactly [solve_prepared]'s. *)
let try_incremental p =
  let shop = p.canon.Cache.shop in
  if
    p.is_add
    && Visit.is_traditional shop.Recurrence_shop.visit
    && Flow_shop.is_identical_length
         (Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks)
       <> None
  then Some (solve_full Unbounded shop)
  else None

(* Decide one prepared candidate: a Submit through the cache under the
   hint-tagged key (find, or solve then insert), an Add by one uncached
   solve.  An Add's merged shop is one-off (the next Add grows it
   again), so an entry would hold a whole shop and its schedule that no
   later request hits.  Both the sequential reference interpreter
   ({!apply}) and the batcher follow exactly this policy, so they agree
   reply-for-reply.  Every solve runs on the canonical form, cached or
   not: heuristics may be sensitive to task order, so canonicalize-always
   makes cache-on and cache-off runs reach identical verdicts by
   construction. *)
let cache_for p cache = if p.is_add then None else cache

let decide_prepared ?(budget = Unbounded) ?cache ({ candidate; canon; _ } as p) =
  let s =
    match cache_for p cache with
    | None -> fst (solve_prepared ~budget p)
    | Some c -> (
        let key = cache_key ~budget ?hint:p.hint canon in
        match Cache.find c key with
        | Some s -> s
        | None ->
            let s = fst (solve_prepared ~budget p) in
            Cache.add c key s;
            s)
  in
  let decision = verify_decision (relabel canon candidate s.decision) in
  record_decision decision;
  (decision, s.hint)

let commit ?prepared ?(state = None) t request decision =
  match (request, decision) with
  | (Submit { shop; _ } | Add { shop; _ }), Some (Admitted _) -> (
      match
        match prepared with Some p -> Ok p | None -> prepare t request
      with
      | Ok { candidate; canon; _ } -> Smap.add shop { shop = candidate; canon; hint = state } t
      | Error _ -> t)
  | Drop { shop }, _ -> Smap.remove shop t
  | _, _ -> t

let resident_sizes t =
  List.map (fun (name, e) -> (name, Recurrence_shop.n_tasks e.shop)) (Smap.bindings t)

let apply ?budget ?cache ?keyer t request =
  Obs.incr "serve.requests";
  let shop =
    match request with
    | Submit { shop; _ } | Add { shop; _ } | Query { shop } | Drop { shop } -> shop
  in
  let decide () =
    match prepare ?keyer t request with
    | Error reply -> (commit t request None, reply)
    | Ok ({ candidate; _ } as prepared) ->
        let decision, state = decide_prepared ?budget ?cache prepared in
        ( commit ~prepared ~state t request (Some decision),
          Decided { shop; n_tasks = Recurrence_shop.n_tasks candidate; decision } )
  in
  match guard decide () with Ok r -> r | Error () -> (t, internal_error shop)

let decision_kind = function
  | Admitted _ -> "admitted"
  | Rejected _ -> "rejected"
  | Undecided _ -> "undecided"

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let pp_certificate ppf = function
  | None -> Format.pp_print_string ppf "none"
  | Some (Infeasibility.Negative_slack { task }) ->
      Format.fprintf ppf "negative-slack(task=T%d)" task
  | Some (Infeasibility.Overloaded_window { processor; window_start; window_end; demand }) ->
      Format.fprintf ppf "overloaded-window(proc=P%d,window=[%s,%s],demand=%s)" (processor + 1)
        (Rat.to_string window_start) (Rat.to_string window_end) (Rat.to_string demand)

let pp_reply ppf = function
  | Decided { shop; n_tasks; decision = Admitted { schedule; algo } } ->
      Format.fprintf ppf "admitted shop=%s tasks=%d algo=%s makespan=%s" shop n_tasks algo
        (Rat.to_string (Schedule.makespan schedule))
  | Decided { shop; n_tasks; decision = Rejected { certificate } } ->
      Format.fprintf ppf "rejected shop=%s tasks=%d certificate=%a" shop n_tasks pp_certificate
        certificate
  | Decided { shop; n_tasks; decision = Undecided { reason } } ->
      Format.fprintf ppf "undecided shop=%s tasks=%d reason=%s" shop n_tasks reason
  | Queried { shop; n_tasks = Some n } -> Format.fprintf ppf "info shop=%s tasks=%d" shop n
  | Queried { shop; n_tasks = None } -> Format.fprintf ppf "info shop=%s unknown" shop
  | Dropped { shop; existed } -> Format.fprintf ppf "dropped shop=%s existed=%b" shop existed
  | Request_error { shop; message } ->
      Format.fprintf ppf "error shop=%s %s" shop (one_line message)
