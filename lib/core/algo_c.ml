module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule

let order_on_processor (s : Schedule.t) p =
  let visit = s.shop.Recurrence_shop.visit in
  let stage =
    let found = ref (-1) in
    Array.iteri (fun j q -> if q = p && !found < 0 then found := j) visit.Visit.sequence;
    if !found < 0 then invalid_arg "Algo_c.order_on_processor: processor not in visit sequence";
    !found
  in
  let n = Array.length s.starts in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Rat.compare s.starts.(a).(stage) s.starts.(b).(stage)) order;
  order

let compact ?(keep_first_start = true) (s : Schedule.t) =
  let shop = s.Schedule.shop in
  if not (Visit.is_traditional shop.Recurrence_shop.visit) then
    invalid_arg "Algo_c.compact: recurrent visit sequences are not permutation schedules";
  let m = Visit.length shop.Recurrence_shop.visit in
  let tasks = shop.Recurrence_shop.tasks in
  let n = Array.length tasks in
  let order = order_on_processor s 0 in
  let starts = Array.make_matrix n m Rat.zero in
  (* Figure 7, transcribed with 0-based indices; [order.(i)] is the
     paper's task T_{i+1}. *)
  let first = order.(0) in
  let t11 = if keep_first_start then Rat.max s.starts.(first).(0) tasks.(first).Task.release
            else tasks.(first).Task.release in
  starts.(first).(0) <- t11;
  for j = 1 to m - 1 do
    starts.(first).(j) <- Rat.add starts.(first).(j - 1) tasks.(first).Task.proc_times.(j - 1)
  done;
  for i = 1 to n - 1 do
    let cur = order.(i) and prev = order.(i - 1) in
    let release = ref tasks.(cur).Task.release in
    for j = 0 to m - 1 do
      let prev_free = Rat.add starts.(prev).(j) tasks.(prev).Task.proc_times.(j) in
      (* Figure 7 also takes the max with the stage's effective release,
         which never binds: [!release] starts as the task's release (the
         effective release of stage 0) and becomes [start_j + tau_j >=
         eff_j + tau_j = eff_(j+1)], so by induction it is already at
         least the effective release. *)
      starts.(cur).(j) <- Rat.max prev_free !release;
      release := Rat.add starts.(cur).(j) tasks.(cur).Task.proc_times.(j)
    done
  done;
  Schedule.make shop starts
