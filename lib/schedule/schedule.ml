module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Grid = E2e_model.Grid

type rat = Rat.t

(* The grid form: L and the starts times L.  The shop's own times are
   rescaled from its rationals where a consumer needs them, so a
   schedule holds no scaled copy of its instance. *)
type grid = { scale : int; gstarts : int array array }
type t = { shop : Recurrence_shop.t; starts : rat array array; grid : grid option }

let check_shape name shop starts =
  let n = Recurrence_shop.n_tasks shop and k = Visit.length shop.Recurrence_shop.visit in
  if Array.length starts <> n then invalid_arg (name ^ ": wrong task count");
  Array.iter (fun row -> if Array.length row <> k then invalid_arg (name ^ ": wrong stage count")) starts

let make shop starts =
  check_shape "Schedule.make" shop starts;
  { shop; starts; grid = None }

let of_grid (g : Grid.t) gstarts =
  check_shape "Schedule.of_grid" g.shop gstarts;
  Grid.check_starts gstarts;
  let scale = g.scale in
  {
    shop = g.shop;
    starts = Grid.map_rows (Array.map (fun s -> Rat.make s scale)) gstarts;
    grid = Some { scale; gstarts };
  }

let same_task (a : Task.t) (b : Task.t) =
  Rat.equal a.release b.release
  && Rat.equal a.deadline b.deadline
  && (a.proc_times == b.proc_times
     || Array.length a.proc_times = Array.length b.proc_times
        && Array.for_all2 Rat.equal a.proc_times b.proc_times)

let relabel ~perm t (shop : Recurrence_shop.t) =
  let n = Array.length t.starts in
  let mismatch () = invalid_arg "Schedule.relabel: the shop is not the schedule's shop permuted" in
  if
    Array.length perm <> n
    || Recurrence_shop.n_tasks shop <> n
    || shop.visit.Visit.sequence <> t.shop.visit.Visit.sequence
  then mismatch ();
  let seen = Array.make n false in
  Array.iteri
    (fun p orig ->
      if orig < 0 || orig >= n || seen.(orig) then mismatch ();
      seen.(orig) <- true;
      if not (same_task t.shop.tasks.(p) shop.tasks.(orig)) then mismatch ())
    perm;
  (* Row [p] moves to [perm.(p)]; the rows themselves are shared. *)
  let permute rows =
    let out = Array.make n [||] in
    Array.iteri (fun p orig -> out.(orig) <- rows.(p)) perm;
    out
  in
  {
    shop;
    starts = permute t.starts;
    grid = Option.map (fun g -> { g with gstarts = permute g.gstarts }) t.grid;
  }

let of_flow_shop fs starts = make (Recurrence_shop.of_traditional fs) starts
let start t ~task ~stage = t.starts.(task).(stage)

let duration t ~task ~stage = t.shop.Recurrence_shop.tasks.(task).Task.proc_times.(stage)
let finish t ~task ~stage = Rat.add (start t ~task ~stage) (duration t ~task ~stage)

let stages t = Visit.length t.shop.Recurrence_shop.visit
let n_tasks t = Array.length t.starts

let completion t task = finish t ~task ~stage:(stages t - 1)

(* The tasks' times on a grid of scale [scale] that admitted them. *)
let scaled_instance scale (tasks : Task.t array) =
  let on = Grid.rescale scale in
  ( Array.map (fun (t : Task.t) -> on t.release) tasks,
    Array.map (fun (t : Task.t) -> on t.deadline) tasks,
    Grid.map_rows (fun (t : Task.t) -> Array.map on t.proc_times) tasks )

let makespan t =
  match t.grid with
  | Some { scale; gstarts } ->
      let tau = Grid.rescale scale and k = stages t in
      let best = ref 0 in
      Array.iteri
        (fun i row ->
          best := Int.max !best (row.(k - 1) + tau t.shop.tasks.(i).Task.proc_times.(k - 1)))
        gstarts;
      Rat.make !best scale
  | None ->
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

(* The reference checker: every constraint re-derived on the rationals.
   It checks the schedules whose grid does not fit, and the grid checker
   below must return exactly its list. *)
let violations_ref t =
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

(* The checker on the grid: the reference's checks in the reference's
   order on ints, each violation's rationals made only when it is
   pushed.  Entry [c = i k + j] is stage [j] of task [i]; each
   processor's entries are listed by [c] and stably sorted by start,
   which is the reference's (start, task, stage) order. *)
let grid_violations t ~scale ~release ~deadline ~tau gstarts =
  let out = ref [] in
  let push v = out := v :: !out in
  let rat v = Rat.make v scale in
  let tasks = t.shop.Recurrence_shop.tasks in
  let n = n_tasks t and k = stages t in
  let start = Array.make (n * k) 0 and finish = Array.make (n * k) 0 in
  for i = 0 to n - 1 do
    let row = gstarts.(i) and taus = tau.(i) in
    for j = 0 to k - 1 do
      start.((i * k) + j) <- row.(j);
      finish.((i * k) + j) <- row.(j) + taus.(j)
    done
  done;
  for i = 0 to n - 1 do
    let task = tasks.(i) and c = i * k in
    if start.(c) < release.(i) then
      push (Release_violated { task = i; start = t.starts.(i).(0); release = task.Task.release });
    if finish.(c + k - 1) > deadline.(i) then
      push
        (Deadline_missed
           { task = i; finish = rat finish.(c + k - 1); deadline = task.Task.deadline });
    for j = 1 to k - 1 do
      if start.(c + j) < finish.(c + j - 1) then
        push
          (Precedence_violated
             { task = i; stage = j; start = t.starts.(i).(j); prev_finish = rat finish.(c + j - 1) })
    done
  done;
  let visit = t.shop.Recurrence_shop.visit in
  let per_proc = Array.make visit.Visit.processors 0 in
  Array.iter (fun p -> per_proc.(p) <- per_proc.(p) + n) visit.Visit.sequence;
  let entries = Array.map (fun len -> Array.make len 0) per_proc in
  let fill = Array.make visit.Visit.processors 0 in
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      let p = visit.Visit.sequence.(j) in
      entries.(p).(fill.(p)) <- (i * k) + j;
      fill.(p) <- fill.(p) + 1
    done
  done;
  Array.iteri
    (fun p es ->
      Array.stable_sort (fun a b -> Int.compare start.(a) start.(b)) es;
      if Array.length es > 0 then begin
        (* The running maximum finish, as in the reference. *)
        let max_f = ref finish.(es.(0)) and holder = ref es.(0) in
        for x = 1 to Array.length es - 1 do
          let c = es.(x) in
          if start.(c) < !max_f then
            push
              (Overlap
                 { processor = p; a = (!holder / k, !holder mod k); b = (c / k, c mod k) });
          if finish.(c) > !max_f then begin
            max_f := finish.(c);
            holder := c
          end
        done
      end)
    entries;
  List.rev !out

let violations t =
  match t.grid with
  | Some { scale; gstarts } ->
      let release, deadline, tau = scaled_instance scale t.shop.Recurrence_shop.tasks in
      grid_violations t ~scale ~release ~deadline ~tau gstarts
  | None -> (
      match Grid.of_schedule t.shop t.starts with
      | g, gstarts ->
          grid_violations t ~scale:g.scale ~release:g.release ~deadline:g.deadline ~tau:g.tau
            gstarts
      | exception Rat.Overflow -> violations_ref t)

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

(* A row is at most three ints (20 bytes each), two rationals (41
   each) and five separators. *)
let row_room = 150

let reserve b pos n =
  if pos + n <= Bytes.length b then b
  else begin
    let grown = Bytes.create (Stdlib.max (pos + n) (2 * Bytes.length b)) in
    Bytes.blit b 0 grown 0 pos;
    grown
  end

let header = "task,stage,processor,start,finish"

let write_csv b pos ~sep t =
  let k = stages t in
  let seq = t.shop.Recurrence_shop.visit.Visit.sequence in
  (* On a grid, a finish equal to the next stage's start as ints is that
     start's rational, already reduced: only the others cost a gcd. *)
  let finish_of =
    match t.grid with
    | Some { scale; gstarts } ->
        let tasks = t.shop.Recurrence_shop.tasks in
        fun i j ->
          let f = gstarts.(i).(j) + Grid.rescale scale tasks.(i).Task.proc_times.(j) in
          if j + 1 < k && gstarts.(i).(j + 1) = f then t.starts.(i).(j + 1) else Rat.make f scale
    | None -> fun i j -> finish t ~task:i ~stage:j
  in
  let b = ref (reserve b pos (String.length header)) in
  Bytes.blit_string header 0 !b pos (String.length header);
  let pos = ref (pos + String.length header) in
  for i = 0 to n_tasks t - 1 do
    for j = 0 to k - 1 do
      b := reserve !b !pos row_room;
      let b = !b and p = !pos in
      Bytes.set b p sep;
      let p = Rat.write_int b (p + 1) i in
      Bytes.set b p ',';
      let p = Rat.write_int b (p + 1) j in
      Bytes.set b p ',';
      let p = Rat.write_int b (p + 1) (seq.(j) + 1) in
      Bytes.set b p ',';
      let p = Rat.write b (p + 1) t.starts.(i).(j) in
      Bytes.set b p ',';
      pos := Rat.write b (p + 1) (finish_of i j)
    done
  done;
  (!b, !pos)

let to_csv t =
  let b, n = write_csv (Bytes.create (64 + (24 * n_tasks t * stages t))) 0 ~sep:'\n' t in
  Bytes.sub_string b 0 n ^ "\n"

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
