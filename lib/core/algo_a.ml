module Rat = E2e_rat.Rat
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Grid = E2e_model.Grid
module Schedule = E2e_schedule.Schedule
module Obs = E2e_obs.Obs

(* Effective release and deadline of the bottleneck stage in one sweep
   over each task's processing times (rather than one O(m) pass each):
   r_ib = r_i + sum_{j<b} tau_ij and d_ib = d_i - sum_{j>b} tau_ij. *)
let bottleneck_windows (g : Grid.t) ~bottleneck =
  let n = Array.length g.release in
  let release = Array.make n 0 and deadline = Array.make n 0 in
  for i = 0 to n - 1 do
    let before = ref 0 and after = ref 0 in
    Array.iteri
      (fun j tau ->
        if j < bottleneck then before := !before + tau
        else if j > bottleneck then after := !after + tau)
      g.tau.(i);
    release.(i) <- g.release.(i) + !before;
    deadline.(i) <- g.deadline.(i) - !after
  done;
  (release, deadline)

let propagate ~bottleneck ~taus starts_b =
  let m = Array.length taus in
  let n = Array.length starts_b in
  let starts = Grid.map_rows (fun _ -> Array.make m 0) starts_b in
  Array.iteri (fun i s -> starts.(i).(bottleneck) <- s) starts_b;
  let pass j body = Obs.span "algo_a.pass" ~fields:[ ("processor", Obs.Int j) ] body in
  (* Downstream: each stage starts the instant its predecessor ends. *)
  for j = bottleneck + 1 to m - 1 do
    pass j (fun () ->
        for i = 0 to n - 1 do
          starts.(i).(j) <- starts.(i).(j - 1) + taus.(j - 1)
        done)
  done;
  (* Upstream: stages laid back-to-back, ending exactly at the
     bottleneck start (Step 3 of Figure 4). *)
  for j = bottleneck - 1 downto 0 do
    pass j (fun () ->
        for i = 0 to n - 1 do
          starts.(i).(j) <- starts.(i).(j + 1) - taus.(j)
        done)
  done;
  starts

(* The first processor with the longest time: Step 1's [P_b]. *)
let longest taus =
  let best = ref 0 in
  Array.iteri (fun j t -> if t > taus.(!best) then best := j) taus;
  !best

let schedule ?bottleneck (shop : Flow_shop.t) =
  match Flow_shop.is_homogeneous shop with
  | None -> Error `Not_homogeneous
  | Some taus ->
      Obs.span "algo_a.schedule"
        ~fields:[ ("tasks", Obs.Int (Flow_shop.n_tasks shop)) ]
        (fun () ->
          let g = Grid.of_shop (Recurrence_shop.of_traditional shop) in
          let b = match bottleneck with Some b -> b | None -> longest g.max_tau in
          if Obs.enabled () then
            Obs.event "algo_a.bottleneck"
              ~fields:
                (( ("processor", Obs.Int b)
                 :: ("forced", Obs.Bool (bottleneck <> None))
                 :: ("tau", Obs.Str (Rat.to_string taus.(b))) :: [] )
                @ Array.to_list
                    (Array.mapi
                       (fun j tau ->
                         (Printf.sprintf "tau_p%d" (j + 1), Obs.Str (Rat.to_string tau)))
                       taus));
          match
            Obs.span "algo_a.bottleneck_pass" (fun () ->
                let release, deadline = bottleneck_windows g ~bottleneck:b in
                Single_machine.schedule_grid ~scale:g.scale ~tau:g.max_tau.(b) ~release ~deadline)
          with
          | Error `Infeasible ->
              Obs.incr "algo_a.infeasible";
              Error `Infeasible
          | Ok starts_b ->
              Obs.incr "algo_a.feasible";
              Ok
                (Obs.span "algo_a.propagate" (fun () ->
                     Schedule.of_grid g (propagate ~bottleneck:b ~taus:g.max_tau starts_b))))
