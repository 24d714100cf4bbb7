module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop

type rat = Rat.t
type t = { shop : Recurrence_shop.t; starts : rat array array }

let make shop starts =
  let n = Recurrence_shop.n_tasks shop and k = Visit.length shop.Recurrence_shop.visit in
  if Array.length starts <> n then invalid_arg "Schedule.make: wrong task count";
  Array.iter
    (fun row -> if Array.length row <> k then invalid_arg "Schedule.make: wrong stage count")
    starts;
  { shop; starts }

let of_flow_shop fs starts = make (Recurrence_shop.of_traditional fs) starts
let start t ~task ~stage = t.starts.(task).(stage)

let duration t ~task ~stage = t.shop.Recurrence_shop.tasks.(task).Task.proc_times.(stage)
let finish t ~task ~stage = Rat.add (start t ~task ~stage) (duration t ~task ~stage)

let stages t = Visit.length t.shop.Recurrence_shop.visit
let n_tasks t = Array.length t.starts

let completion t task = finish t ~task ~stage:(stages t - 1)

let makespan t =
  let best = ref Rat.zero in
  for i = 0 to n_tasks t - 1 do
    best := Rat.max !best (completion t i)
  done;
  !best

(* Entries (start, task, stage) in start order, ties by task then stage.
   Monomorphic: polymorphic [compare] on these tuples would walk the
   rationals' blocks field by field. *)
let compare_entry ((s1 : rat), (i1 : int), (j1 : int)) (s2, i2, j2) =
  let c = Rat.compare s1 s2 in
  if c <> 0 then c
  else
    let c = Int.compare i1 i2 in
    if c <> 0 then c else Int.compare j1 j2

(* Every processor's entries, sorted by [compare_entry]: one pass over
   the n·k entries buckets them by processor. *)
let processor_entries t =
  let visit = t.shop.Recurrence_shop.visit in
  let buckets = Array.make visit.Visit.processors [] in
  for i = n_tasks t - 1 downto 0 do
    for j = stages t - 1 downto 0 do
      let p = visit.Visit.sequence.(j) in
      buckets.(p) <- (t.starts.(i).(j), i, j) :: buckets.(p)
    done
  done;
  Array.map (List.sort compare_entry) buckets

let is_permutation t =
  let order_of entries = List.map (fun (_, i, _) -> i) entries in
  (* Global distinctness: a task may appear at most once per processor, not
     merely on non-adjacent positions (T1,T2,T1 is not a permutation order). *)
  let distinct_order order =
    let sorted = List.sort Stdlib.compare order in
    let rec no_dup = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> a <> b && no_dup rest
    in
    no_dup sorted
  in
  (* Only meaningful when every processor runs each task once. *)
  let orders = Array.to_list (Array.map order_of (processor_entries t)) in
  match orders with
  | [] -> true
  | first :: rest -> List.for_all distinct_order orders && List.for_all (( = ) first) rest

type violation =
  | Release_violated of { task : int; start : rat; release : rat }
  | Deadline_missed of { task : int; finish : rat; deadline : rat }
  | Precedence_violated of { task : int; stage : int; start : rat; prev_finish : rat }
  | Overlap of { processor : int; a : int * int; b : int * int }

let pp_violation ppf = function
  | Release_violated { task; start; release } ->
      Format.fprintf ppf "task %d starts at %a before release %a" task Rat.pp start Rat.pp release
  | Deadline_missed { task; finish; deadline } ->
      Format.fprintf ppf "task %d finishes at %a after deadline %a" task Rat.pp finish Rat.pp
        deadline
  | Precedence_violated { task; stage; start; prev_finish } ->
      Format.fprintf ppf "task %d stage %d starts at %a before stage %d ends at %a" task stage
        Rat.pp start (stage - 1) Rat.pp prev_finish
  | Overlap { processor; a = ta, sa; b = tb, sb } ->
      Format.fprintf ppf "processor %d: (task %d, stage %d) overlaps (task %d, stage %d)"
        processor ta sa tb sb

let violations t =
  let out = ref [] in
  let push v = out := v :: !out in
  let tasks = t.shop.Recurrence_shop.tasks in
  (* Every finish is computed once: the precedence, deadline and overlap
     checks all read it. *)
  let finishes =
    Array.mapi
      (fun i row -> Array.mapi (fun j s -> Rat.add s tasks.(i).Task.proc_times.(j)) row)
      t.starts
  in
  let k = stages t in
  for i = 0 to n_tasks t - 1 do
    let task = tasks.(i) in
    if Rat.(t.starts.(i).(0) < task.Task.release) then
      push (Release_violated { task = i; start = t.starts.(i).(0); release = task.Task.release });
    let fin = finishes.(i).(k - 1) in
    if Rat.(fin > task.Task.deadline) then
      push (Deadline_missed { task = i; finish = fin; deadline = task.Task.deadline });
    for j = 1 to k - 1 do
      let prev_finish = finishes.(i).(j - 1) in
      if Rat.(t.starts.(i).(j) < prev_finish) then
        push (Precedence_violated { task = i; stage = j; start = t.starts.(i).(j); prev_finish })
    done
  done;
  let entries = processor_entries t in
  for p = 0 to Array.length entries - 1 do
    (* Scan start-sorted entries carrying the running maximum finish; a
       long entry hides later overlaps from a purely adjacent comparison
       (A = [0,10], B = [1,2], C = [3,4]: B-C are disjoint but both sit
       inside A). *)
    let rec scan (max_f, mi, mj) = function
      | (s2, i2, j2) :: rest ->
          if Rat.(s2 < max_f) then push (Overlap { processor = p; a = (mi, mj); b = (i2, j2) });
          let f2 = finishes.(i2).(j2) in
          let running = if Rat.(f2 > max_f) then (f2, i2, j2) else (max_f, mi, mj) in
          scan running rest
      | [] -> ()
    in
    match entries.(p) with
    | [] -> ()
    | (_, i1, j1) :: rest -> scan (finishes.(i1).(j1), i1, j1) rest
  done;
  List.rev !out

let is_feasible t = violations t = []
let check t = match violations t with [] -> Ok () | vs -> Error vs

let forward_pass (shop : Recurrence_shop.t) ~order =
  let k = Visit.length shop.visit in
  let n = Array.length shop.tasks in
  if Array.length order <> n then invalid_arg "Schedule.forward_pass: bad order length";
  let starts = Array.make_matrix n k Rat.zero in
  (* Processors are free from before the earliest release, so negative
     release times are honoured too. *)
  let earliest =
    Array.fold_left (fun acc (t : Task.t) -> Rat.min acc t.Task.release) Rat.zero shop.tasks
  in
  let free = Array.make shop.visit.Visit.processors earliest in
  Array.iter
    (fun i ->
      let task = shop.tasks.(i) in
      let ready = ref task.Task.release in
      for j = 0 to k - 1 do
        let p = shop.visit.Visit.sequence.(j) in
        let s = Rat.max !ready free.(p) in
        starts.(i).(j) <- s;
        let f = Rat.add s task.Task.proc_times.(j) in
        ready := f;
        free.(p) <- f
      done)
    order;
  make shop starts

let left_shift t =
  let n = n_tasks t and k = stages t in
  let shop = t.shop in
  let starts = Array.make_matrix n k Rat.zero in
  (* Process all stage instances in the original global start order so that
     each processor keeps its execution order and each chain its sequence. *)
  let all =
    List.concat
      (List.init n (fun i -> List.init k (fun j -> (t.starts.(i).(j), i, j))))
  in
  let all = List.sort compare_entry all in
  let free = Array.make shop.Recurrence_shop.visit.Visit.processors Rat.zero in
  List.iter
    (fun (_, i, j) ->
      let task = shop.Recurrence_shop.tasks.(i) in
      let p = shop.Recurrence_shop.visit.Visit.sequence.(j) in
      let ready =
        if j = 0 then task.Task.release
        else Rat.add starts.(i).(j - 1) task.Task.proc_times.(j - 1)
      in
      let s = Rat.max ready free.(p) in
      starts.(i).(j) <- s;
      free.(p) <- Rat.add s task.Task.proc_times.(j))
    all;
  make shop starts

let pp_table ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-5s %-5s %-5s %10s %10s %10s %10s@," "task" "stage" "proc" "start" "finish"
    "eff.rel" "eff.dl";
  for i = 0 to n_tasks t - 1 do
    let task = t.shop.Recurrence_shop.tasks.(i) in
    for j = 0 to stages t - 1 do
      let p = t.shop.Recurrence_shop.visit.Visit.sequence.(j) in
      Format.fprintf ppf "T%-4d %-5d P%-4d %10s %10s %10s %10s@," i j (p + 1)
        (Rat.to_string (start t ~task:i ~stage:j))
        (Rat.to_string (finish t ~task:i ~stage:j))
        (Rat.to_string (Task.effective_release task j))
        (Rat.to_string (Task.effective_deadline task j))
    done
  done;
  Format.fprintf ppf "@]"

let add_csv buf ~sep t =
  let seq = t.shop.Recurrence_shop.visit.Visit.sequence in
  Buffer.add_string buf "task,stage,processor,start,finish";
  for i = 0 to n_tasks t - 1 do
    for j = 0 to stages t - 1 do
      Buffer.add_char buf sep;
      Rat.add_int_to_buffer buf i;
      Buffer.add_char buf ',';
      Rat.add_int_to_buffer buf j;
      Buffer.add_char buf ',';
      Rat.add_int_to_buffer buf (seq.(j) + 1);
      Buffer.add_char buf ',';
      Rat.add_to_buffer buf (start t ~task:i ~stage:j);
      Buffer.add_char buf ',';
      Rat.add_to_buffer buf (finish t ~task:i ~stage:j)
    done
  done

let to_csv t =
  let buf = Buffer.create (32 + (24 * n_tasks t * stages t)) in
  add_csv buf ~sep:'\n' t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let pp_gantt ?(unit_time = Rat.one) ppf t =
  (* Column 0 sits at the earliest start, not at 0: clamping negative
     starts into cell 0 would draw overlaps that do not exist.  For the
     common all-nonnegative case the origin stays 0, keeping the axis of
     every existing chart. *)
  let origin = ref Rat.zero in
  for i = 0 to n_tasks t - 1 do
    for j = 0 to stages t - 1 do
      origin := Rat.min !origin t.starts.(i).(j)
    done
  done;
  let origin = !origin in
  let horizon = Rat.sub (makespan t) origin in
  let cells = Rat.ceil (Rat.div horizon unit_time) in
  let cells = Stdlib.min cells 200 in
  Format.fprintf ppf "@[<v>";
  if not (Rat.is_zero origin) then Format.fprintf ppf "t = %a at column 0@," Rat.pp origin;
  let entries = processor_entries t in
  for p = 0 to Array.length entries - 1 do
    let row = Bytes.make cells '.' in
    List.iter
      (fun (s, i, j) ->
        let f = finish t ~task:i ~stage:j in
        let c0 = Rat.floor (Rat.div (Rat.sub s origin) unit_time) in
        let c1 = Rat.ceil (Rat.div (Rat.sub f origin) unit_time) in
        for c = Stdlib.max 0 c0 to Stdlib.min (cells - 1) (c1 - 1) do
          Bytes.set row c (Char.chr (Char.code '0' + (i + 1) mod 10))
        done)
      entries.(p);
    Format.fprintf ppf "P%d |%s|@," (p + 1) (Bytes.to_string row)
  done;
  Format.fprintf ppf "@]"
