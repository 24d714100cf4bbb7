module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Grid = E2e_model.Grid
module Schedule = E2e_schedule.Schedule

(* Task indices by start on [stage]. *)
let order_by_stage gstarts stage =
  let key = Array.map (fun row -> row.(stage)) gstarts in
  let order = Array.init (Array.length gstarts) Fun.id in
  Array.sort (fun a b -> Int.compare key.(a) key.(b)) order;
  order

let order_on_processor (s : Schedule.t) p =
  let visit = s.shop.Recurrence_shop.visit in
  let stage =
    let found = ref (-1) in
    Array.iteri (fun j q -> if q = p && !found < 0 then found := j) visit.Visit.sequence;
    if !found < 0 then invalid_arg "Algo_c.order_on_processor: processor not in visit sequence";
    !found
  in
  order_by_stage (snd (Grid.of_schedule s.shop s.starts)) stage

let permutation_only (shop : Recurrence_shop.t) =
  if not (Visit.is_traditional shop.Recurrence_shop.visit) then
    invalid_arg "Algo_c.compact: recurrent visit sequences are not permutation schedules"

let compact_grid ?(keep_first_start = true) (g : Grid.t) gstarts =
  permutation_only g.shop;
  let m = Visit.length g.shop.Recurrence_shop.visit in
  let n = Array.length gstarts in
  let order = order_by_stage gstarts 0 in
  let starts = Array.make_matrix n m 0 in
  (* Each start is at most one stage time past a start already checked,
     so checking as it is written keeps every sum from wrapping (see
     [Grid]). *)
  let put i j v =
    if v > Grid.limit then raise E2e_rat.Rat.Overflow;
    starts.(i).(j) <- v
  in
  (* Figure 7, transcribed with 0-based indices; [order.(i)] is the
     paper's task T_{i+1}. *)
  let first = order.(0) in
  let t11 =
    if keep_first_start then Int.max gstarts.(first).(0) g.release.(first)
    else g.release.(first)
  in
  put first 0 t11;
  for j = 1 to m - 1 do
    put first j (starts.(first).(j - 1) + g.tau.(first).(j - 1))
  done;
  for i = 1 to n - 1 do
    let cur = order.(i) and prev = order.(i - 1) in
    let release = ref g.release.(cur) in
    for j = 0 to m - 1 do
      let prev_free = starts.(prev).(j) + g.tau.(prev).(j) in
      (* Figure 7 also takes the max with the stage's effective release,
         which never binds: [!release] starts as the task's release (the
         effective release of stage 0) and becomes [start_j + tau_j >=
         eff_j + tau_j = eff_(j+1)], so by induction it is already at
         least the effective release. *)
      put cur j (Int.max prev_free !release);
      release := starts.(cur).(j) + g.tau.(cur).(j)
    done
  done;
  starts

let compact ?keep_first_start (s : Schedule.t) =
  permutation_only s.shop;
  let g, gstarts = Grid.of_schedule s.shop s.starts in
  Schedule.of_grid g (compact_grid ?keep_first_start g gstarts)
