module Rat = E2e_rat.Rat
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Grid = E2e_model.Grid
module Schedule = E2e_schedule.Schedule
module Obs = E2e_obs.Obs

type failure = [ `Inflated_infeasible | `Compacted_infeasible of Schedule.t ]

let pp_failure ppf = function
  | `Inflated_infeasible ->
      Format.pp_print_string ppf "Algorithm A found the inflated task set unschedulable"
  | `Compacted_infeasible _ ->
      Format.pp_print_string ppf "compacted schedule still violates a constraint"

type report = {
  inflated : Flow_shop.t Lazy.t;
  bottleneck : int;
  raw : Schedule.t Lazy.t option;
  result : (Schedule.t, failure) result;
}

(* Total processing time added by Step 2's inflation, per processor, as a
   float (telemetry only). *)
let inflation_fields (g : Grid.t) =
  let per_proc = Array.make (Array.length g.max_tau) 0.0 in
  Array.iter
    (Array.iteri (fun j tau ->
         per_proc.(j) <- per_proc.(j) +. Rat.to_float (Grid.to_rat g (g.max_tau.(j) - tau))))
    g.tau;
  let total = Array.fold_left ( +. ) 0.0 per_proc in
  ("total", Obs.Float total)
  :: Array.to_list
       (Array.mapi (fun j d -> (Printf.sprintf "p%d" (j + 1), Obs.Float d)) per_proc)

(* How far Algorithm C moved the raw schedule: entries changed and the
   summed absolute shift (telemetry only). *)
let compaction_fields (g : Grid.t) raw_starts final_starts raw =
  let moved = ref 0 and shift = ref 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j s ->
          let s' = final_starts.(i).(j) in
          if s <> s' then begin
            incr moved;
            shift := !shift +. Rat.to_float (Grid.to_rat g (abs (s' - s)))
          end)
        row)
    raw_starts;
  [
    ("moved", Obs.Int !moved);
    ("total_shift", Obs.Float !shift);
    ("violations_before", Obs.Int (List.length (Schedule.violations (Lazy.force raw))));
  ]

let run ?(compact = true) ?bottleneck (shop : Flow_shop.t) =
  Obs.span "algo_h.run"
    ~fields:[ ("tasks", Obs.Int (Flow_shop.n_tasks shop)) ]
    (fun () ->
      (* Steps 2-3: inflate every subtask on P_j to tau_max,j.  Note that the
         effective release times and deadlines fed to Algorithm A come from
         Step 1, i.e. from the ORIGINAL processing times — the inflated
         windows are not recomputed.  This is why the schedule of Figure 8(a)
         can violate release times: the rigid upstream propagation uses the
         longer inflated durations against the original windows.  On the
         grid the inflated shop is just [g.max_tau]. *)
      let inflated = lazy (Flow_shop.inflate shop) in
      let g = Grid.of_shop (Recurrence_shop.of_traditional shop) in
      let b = match bottleneck with Some b -> b | None -> Algo_a.longest g.max_tau in
      if Obs.enabled () then
        Obs.event "algo_h.inflation"
          ~fields:(("bottleneck", Obs.Int b) :: inflation_fields g);
      (* Step 4: Algorithm A's Step 2 on the bottleneck — an equal-length
         (tau_max,b) single-machine instance over the original effective
         windows. *)
      match
        Obs.span "algo_h.bottleneck_pass" (fun () ->
            let release, deadline = Algo_a.bottleneck_windows g ~bottleneck:b in
            Single_machine.schedule_grid ~scale:g.scale ~tau:g.max_tau.(b) ~release ~deadline)
      with
      | Error `Infeasible ->
          Obs.incr "algo_h.inflated_infeasible";
          { inflated; bottleneck = b; raw = None; result = Error `Inflated_infeasible }
      | Ok starts_b ->
          (* Algorithm A's Step 3 with the inflated durations; the inflated
             schedule is then reread with the original processing times (each
             inflated subtask = busy segment first, idle padding after). *)
          let raw_starts = Algo_a.propagate ~bottleneck:b ~taus:g.max_tau starts_b in
          (* Only the int check is eager: nothing on the solve path reads
             [raw] as rationals, so it is built when forced. *)
          Grid.check_starts raw_starts;
          let raw = lazy (Schedule.of_grid g raw_starts) in
          (* Step 5: Algorithm C. *)
          let final_starts =
            if compact then Obs.span "algo_h.compact" (fun () -> Algo_c.compact_grid g raw_starts)
            else raw_starts
          in
          let final = if compact then Schedule.of_grid g final_starts else Lazy.force raw in
          if Obs.enabled () && compact then
            Obs.event "algo_h.compaction" ~fields:(compaction_fields g raw_starts final_starts raw);
          let result =
            if Schedule.is_feasible final then begin
              Obs.incr "algo_h.feasible";
              Ok final
            end
            else begin
              Obs.incr "algo_h.compacted_infeasible";
              Error (`Compacted_infeasible final)
            end
          in
          { inflated; bottleneck = b; raw = Some raw; result })

let schedule shop = (run shop).result
