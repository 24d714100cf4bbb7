module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
open Helpers

let two_task_shop () =
  Flow_shop.of_params
    [| (r 0, r 10, [| r 2; r 3 |]); (r 1, r 12, [| r 2; r 3 |]) |]

let good_starts () = [| [| r 0; r 2 |]; [| r 2; r 5 |] |]

let test_accessors () =
  let s = Schedule.of_flow_shop (two_task_shop ()) (good_starts ()) in
  check_rat "start" (r 2) (Schedule.start s ~task:1 ~stage:0);
  check_rat "finish" (r 5) (Schedule.finish s ~task:0 ~stage:1);
  check_rat "completion T2" (r 8) (Schedule.completion s 1);
  check_rat "makespan" (r 8) (Schedule.makespan s)

let test_feasible () =
  let s = Schedule.of_flow_shop (two_task_shop ()) (good_starts ()) in
  assert_feasible "hand schedule" s;
  Alcotest.(check bool) "permutation" true (Schedule.is_permutation s)

let has_violation pred s =
  List.exists pred (Schedule.violations s)

let test_release_violation () =
  let s =
    Schedule.of_flow_shop (two_task_shop ()) [| [| r 0; r 2 |]; [| Rat.zero; r 5 |] |]
  in
  Alcotest.(check bool) "detects release" true
    (has_violation (function Schedule.Release_violated { task = 1; _ } -> true | _ -> false) s)

let test_deadline_violation () =
  let s = Schedule.of_flow_shop (two_task_shop ()) [| [| r 0; r 8 |]; [| r 2; r 5 |] |] in
  Alcotest.(check bool) "detects deadline" true
    (has_violation (function Schedule.Deadline_missed { task = 0; _ } -> true | _ -> false) s)

let test_precedence_violation () =
  let s = Schedule.of_flow_shop (two_task_shop ()) [| [| r 0; r 1 |]; [| r 2; r 5 |] |] in
  Alcotest.(check bool) "detects precedence" true
    (has_violation
       (function Schedule.Precedence_violated { task = 0; stage = 1; _ } -> true | _ -> false)
       s)

let test_overlap_violation () =
  let s = Schedule.of_flow_shop (two_task_shop ()) [| [| r 0; r 2 |]; [| r 1; r 5 |] |] in
  Alcotest.(check bool) "detects overlap" true
    (has_violation (function Schedule.Overlap { processor = 0; _ } -> true | _ -> false) s)

let test_overlap_on_reused_processor () =
  (* Recurrent shop: stage 0 and stage 2 share P1; make them collide for
     different tasks. *)
  let visit = Visit.of_one_based [| 1; 2; 1 |] in
  let tasks =
    Array.init 2 (fun id ->
        Task.make ~id ~release:Rat.zero ~deadline:(r 20) ~proc_times:(Array.make 3 (r 2)))
  in
  let shop = Recurrence_shop.make ~visit tasks in
  let s = Schedule.make shop [| [| r 0; r 2; r 4 |]; [| r 3; r 6; r 8 |] |] in
  Alcotest.(check bool) "collision across visits detected" true
    (has_violation (function Schedule.Overlap { processor = 0; _ } -> true | _ -> false) s)

(* Regression: the duplicate check in is_permutation used to compare
   only adjacent entries of the processor order, so an interleaved
   revisit pattern like T1,T2,T1,T2 slipped through as a "permutation". *)
let test_is_permutation_nonadjacent_duplicate () =
  let visit = Visit.of_one_based [| 1; 2; 1 |] in
  let tasks =
    Array.init 2 (fun id ->
        Task.make ~id ~release:Rat.zero ~deadline:(r 20) ~proc_times:(Array.make 3 (r 1)))
  in
  let shop = Recurrence_shop.make ~visit tasks in
  let s = Schedule.make shop [| [| r 0; r 2; r 4 |]; [| r 2; r 4; r 6 |] |] in
  assert_feasible "interleaved revisits are feasible" s;
  Alcotest.(check bool) "P1 order T1,T2,T1,T2 is not a permutation" false
    (Schedule.is_permutation s)

(* Regression: the overlap scan used to compare only adjacent entries in
   start order, so an entry hidden entirely behind a long earlier entry
   was never compared against it. *)
let test_overlap_hidden_behind_long_entry () =
  let shop =
    Flow_shop.of_params
      [|
        (r 0, r 30, [| r 10 |]) (* A occupies [0,10] *);
        (r 0, r 30, [| r 1 |]) (* B at [2,3]: adjacent to A, caught before *);
        (r 0, r 30, [| r 1 |]) (* C at [5,6]: only overlaps A, two entries back *);
      |]
  in
  let s = Schedule.of_flow_shop shop [| [| r 0 |]; [| r 2 |]; [| r 5 |] |] in
  let overlaps_with_c =
    List.exists
      (function
        | Schedule.Overlap { a = 2, _; _ } | Schedule.Overlap { b = 2, _; _ } -> true
        | _ -> false)
      (Schedule.violations s)
  in
  Alcotest.(check bool) "overlap against the long entry is reported" true overlaps_with_c

(* Regression: pp_gantt used to clamp negative start times into cell 0,
   drawing such entries on top of whatever legitimately sat there. *)
let test_pp_gantt_negative_start () =
  let shop = Flow_shop.of_params [| (r 0, r 20, [| r 2; r 2 |]) |] in
  let s = Schedule.of_flow_shop shop [| [| r (-2); r 1 |] |] in
  let gantt = Format.asprintf "%a" (Schedule.pp_gantt ?unit_time:None) s in
  Alcotest.(check bool) "axis origin is announced" true
    (Helpers.contains gantt "t = -2 at column 0");
  (* Stage 0 runs over [-2,0] and stage 1 over [1,3]; with the axis
     shifted they occupy cells 0-1 on P1 and cells 3-4 on P2 instead of
     both being clamped against column 0. *)
  Alcotest.(check bool) "P1 entry drawn from the shifted origin" true
    (Helpers.contains gantt "P1 |11...|");
  Alcotest.(check bool) "P2 entry keeps its true offset" true
    (Helpers.contains gantt "P2 |...11|");
  let nonneg = Schedule.of_flow_shop shop [| [| r 0; r 2 |] |] in
  let plain = Format.asprintf "%a" (Schedule.pp_gantt ?unit_time:None) nonneg in
  Alcotest.(check bool) "non-negative schedules keep the bare axis" false
    (Helpers.contains plain "at column 0")

let test_forward_pass () =
  let shop = Recurrence_shop.of_traditional (two_task_shop ()) in
  let s = Schedule.forward_pass shop ~order:[| 0; 1 |] in
  assert_feasible "forward pass" s;
  check_rat "T1 starts at release" (r 0) (Schedule.start s ~task:0 ~stage:0);
  check_rat "T2 waits for P1" (r 2) (Schedule.start s ~task:1 ~stage:0);
  check_rat "T2 stage 2 waits for P2" (r 5) (Schedule.start s ~task:1 ~stage:1)

let test_forward_pass_respects_release () =
  let shop =
    Flow_shop.of_params [| (r 5, r 20, [| r 2; r 3 |]); (r 0, r 20, [| r 2; r 3 |]) |]
  in
  let s = Schedule.forward_pass (Recurrence_shop.of_traditional shop) ~order:[| 0; 1 |] in
  check_rat "waits for release 5" (r 5) (Schedule.start s ~task:0 ~stage:0)

let test_left_shift () =
  let shop = two_task_shop () in
  (* A needlessly delayed schedule. *)
  let s = Schedule.of_flow_shop shop [| [| r 1; r 4 |]; [| r 3; r 8 |] |] in
  let c = Schedule.left_shift s in
  assert_feasible "compacted" c;
  check_rat "T1 pulled to release" (r 0) (Schedule.start c ~task:0 ~stage:0);
  check_rat "T1 stage 2 chains" (r 2) (Schedule.start c ~task:0 ~stage:1);
  Alcotest.(check bool) "makespan not worse" true
    Rat.(Schedule.makespan c <= Schedule.makespan s)

let test_left_shift_idempotent () =
  let shop = Recurrence_shop.of_traditional (two_task_shop ()) in
  let s = Schedule.forward_pass shop ~order:[| 1; 0 |] in
  let once = Schedule.left_shift s in
  let twice = Schedule.left_shift once in
  Alcotest.(check bool) "idempotent" true (once.Schedule.starts = twice.Schedule.starts)

let test_pp_smoke () =
  let s = Schedule.of_flow_shop (two_task_shop ()) (good_starts ()) in
  let table = Format.asprintf "%a" Schedule.pp_table s in
  Alcotest.(check bool) "table mentions T0" true (Helpers.contains table "T0");
  let gantt = Format.asprintf "%a" (Schedule.pp_gantt ?unit_time:None) s in
  Alcotest.(check bool) "gantt has both processor rows" true
    (Helpers.contains gantt "P1 |" && Helpers.contains gantt "P2 |")

(* Random-instance properties: left_shift of any forward-pass schedule
   keeps feasibility and never delays any completion. *)
let prop_left_shift_monotone =
  Helpers.to_alcotest
    (QCheck.Test.make ~name:"left_shift never delays a completion" ~count:200
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let g = E2e_prng.Prng.create seed in
         let shop =
           E2e_workload.Feasible_gen.generate g
             {
               E2e_workload.Feasible_gen.n_tasks = 5;
               n_processors = 3;
               mean_tau = 1.0;
               stdev = 0.4;
               slack_factor = 1.0;
             }
         in
         let rshop = Recurrence_shop.of_traditional shop in
         let order = E2e_prng.Prng.permutation g 5 in
         let s = Schedule.forward_pass rshop ~order in
         let shifted = Schedule.left_shift s in
         let ok = ref (Schedule.is_feasible shifted = Schedule.is_feasible s
                       || Schedule.is_feasible shifted) in
         for i = 0 to 4 do
           if Rat.(Schedule.completion shifted i > Schedule.completion s i) then ok := false
         done;
         !ok))

let prop_forward_pass_feasible_on_generated =
  Helpers.to_alcotest
    (QCheck.Test.make ~name:"witness order forward pass is checker-clean" ~count:200
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let g = E2e_prng.Prng.create seed in
         let shop, witness =
           E2e_workload.Feasible_gen.generate_with_witness g
             {
               E2e_workload.Feasible_gen.n_tasks = 4;
               n_processors = 4;
               mean_tau = 1.0;
               stdev = 0.5;
               slack_factor = 0.5;
             }
         in
         ignore shop;
         Schedule.is_feasible witness))

(* The checker as it stood before processor bucketing: one rescan of
   all n·k entries per processor and a polymorphic tuple tie-break.  The
   reference the bucketed checker must match violation for violation,
   order included. *)
let reference_violations s =
  let shop = s.Schedule.shop in
  let seq = shop.Recurrence_shop.visit.Visit.sequence in
  let n = Array.length s.Schedule.starts and k = Array.length seq in
  let out = ref [] in
  let push v = out := v :: !out in
  for i = 0 to n - 1 do
    let task = shop.Recurrence_shop.tasks.(i) in
    let start = Schedule.start s ~task:i ~stage:0 in
    if Rat.(start < task.Task.release) then
      push (Schedule.Release_violated { task = i; start; release = task.Task.release });
    let finish = Schedule.completion s i in
    if Rat.(finish > task.Task.deadline) then
      push (Schedule.Deadline_missed { task = i; finish; deadline = task.Task.deadline });
    for j = 1 to k - 1 do
      let prev_finish = Schedule.finish s ~task:i ~stage:(j - 1) in
      let start = Schedule.start s ~task:i ~stage:j in
      if Rat.(start < prev_finish) then
        push (Schedule.Precedence_violated { task = i; stage = j; start; prev_finish })
    done
  done;
  for p = 0 to shop.Recurrence_shop.visit.Visit.processors - 1 do
    let entries = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to k - 1 do
        if seq.(j) = p then entries := (Schedule.start s ~task:i ~stage:j, i, j) :: !entries
      done
    done;
    let sorted =
      List.sort
        (fun (s1, i1, j1) (s2, i2, j2) ->
          let c = Rat.compare s1 s2 in
          if c <> 0 then c else Stdlib.compare (i1, j1) (i2, j2))
        !entries
    in
    let rec scan (max_f, mi, mj) = function
      | (s2, i2, j2) :: rest ->
          if Rat.(s2 < max_f) then
            push (Schedule.Overlap { processor = p; a = (mi, mj); b = (i2, j2) });
          let f2 = Schedule.finish s ~task:i2 ~stage:j2 in
          scan (if Rat.(f2 > max_f) then (f2, i2, j2) else (max_f, mi, mj)) rest
      | [] -> ()
    in
    match sorted with
    | [] -> ()
    | (_, i1, j1) :: rest -> scan (Schedule.finish s ~task:i1 ~stage:j1, i1, j1) rest
  done;
  List.rev !out

(* Perturbed schedules: a forward pass (feasible up to the generated
   windows) with some stage starts replaced by random values or by
   another stage's start, so ties, overlaps hidden behind long entries
   and precedence breaks all occur, on reused processors too. *)
let prop_violations_match_reference =
  let gen =
    QCheck.Gen.(
      pair (Helpers.schedule_gen ()) (list_size (int_range 0 6) (triple nat nat bool)))
  in
  let print (s, _) = Schedule.to_csv s in
  Helpers.to_alcotest
    (QCheck.Test.make ~name:"violations match the rescan reference" ~count:500
       (QCheck.make ~print gen) (fun (random, picks) ->
         let shop = random.Schedule.shop in
         let n = Recurrence_shop.n_tasks shop in
         let base = Schedule.forward_pass shop ~order:(Array.init n Fun.id) in
         let starts = Array.map Array.copy base.Schedule.starts in
         let k = Visit.length shop.Recurrence_shop.visit in
         if n > 0 then
           List.iter
             (fun (a, b, tie) ->
               let i = a mod n and j = b mod k in
               starts.(i).(j) <-
                 (if tie then starts.(b mod n).(a mod k) else random.Schedule.starts.(i).(j)))
             picks;
         let s = Schedule.make shop starts in
         let got = Schedule.violations s and want = reference_violations s in
         if got <> want then
           QCheck.Test.fail_reportf "got %d violations, reference %d" (List.length got)
             (List.length want);
         true))

(* The grid checker against the rational reference [Schedule.violations_ref]:
   the same list, in the same order, with the same rationals, whether the
   schedule carries its grid form ([of_grid], and after [relabel]) or is
   scaled by the checker itself ([make]).  Draws start from a forward
   pass — feasible when the deadlines are loosened — over random visit
   sequences (reused processors included) with negative times and mixed
   denominators, then perturb some starts: by one grid unit either way,
   onto another entry's start, just inside another entry (so a long
   entry hides later overlaps), or to an arbitrary rational.  Renderings
   and makespans of the two constructions agree too. *)
let prop_grid_checker_matches_reference =
  let gen =
    QCheck.Gen.(
      quad (Helpers.schedule_gen ()) bool
        (list_size (int_range 0 6) (quad nat nat (int_bound 4) bool))
        (int_bound 1_000_000))
  in
  let print (s, _, _, _) = Schedule.to_csv s in
  Helpers.to_alcotest
    (QCheck.Test.make ~name:"grid checker equals the rational reference" ~count:1000
       (QCheck.make ~print gen) (fun (random, loose, picks, seed) ->
         let shop =
           let shop = random.Schedule.shop in
           if not loose then shop
           else
             Recurrence_shop.make ~visit:shop.visit
               (Array.map
                  (fun (t : Task.t) ->
                    Task.make ~id:t.id ~release:t.release
                      ~deadline:(Rat.add t.release (r 100_000)) ~proc_times:t.proc_times)
                  shop.tasks)
         in
         let n = Recurrence_shop.n_tasks shop and k = Visit.length shop.visit in
         let base = Schedule.forward_pass shop ~order:(Array.init n Fun.id) in
         let starts = Array.map Array.copy base.Schedule.starts in
         let unit = Rat.make 1 (E2e_model.Grid.of_schedule shop starts |> fst).scale in
         if n > 0 then
           List.iter
             (fun (a, b, kind, up) ->
               let i = a mod n and j = b mod k in
               let i' = b mod n and j' = a mod k in
               starts.(i).(j) <-
                 (match kind with
                 | 0 -> (if up then Rat.add else Rat.sub) starts.(i).(j) unit
                 | 1 -> starts.(i').(j')
                 | 2 -> Rat.add starts.(i').(j') unit
                 | _ -> random.Schedule.starts.(i).(j)))
             picks;
         let made = Schedule.make shop starts in
         let g, gstarts = E2e_model.Grid.of_schedule shop starts in
         let gridded = Schedule.of_grid g gstarts in
         let want = Schedule.violations_ref made in
         let perm = E2e_prng.Prng.permutation (E2e_prng.Prng.create seed) n in
         (* Task [p] of [shop] becomes task [perm.(p)] of [permuted]. *)
         let permuted =
           let inv = Array.make n 0 in
           Array.iteri (fun p orig -> inv.(orig) <- p) perm;
           Recurrence_shop.make ~visit:shop.visit
             (Array.init n (fun id ->
                  let (t : Task.t) = shop.tasks.(inv.(id)) in
                  Task.make ~id ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times))
         in
         let relabelled = Schedule.relabel ~perm gridded permuted in
         let check what got want =
           if got <> want then
             QCheck.Test.fail_reportf "%s: got %d violations, reference %d" what
               (List.length got) (List.length want)
         in
         check "make" (Schedule.violations made) want;
         check "of_grid" (Schedule.violations gridded) want;
         check "relabel"
           (Schedule.violations relabelled)
           (Schedule.violations_ref (Schedule.make permuted relabelled.Schedule.starts));
         Schedule.to_csv gridded = Schedule.to_csv made
         && Rat.equal (Schedule.makespan gridded) (Schedule.makespan made)))

let suite =
  [
    prop_grid_checker_matches_reference;
    prop_left_shift_monotone;
    prop_forward_pass_feasible_on_generated;
    prop_violations_match_reference;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "feasible schedule" `Quick test_feasible;
    Alcotest.test_case "release violation" `Quick test_release_violation;
    Alcotest.test_case "deadline violation" `Quick test_deadline_violation;
    Alcotest.test_case "precedence violation" `Quick test_precedence_violation;
    Alcotest.test_case "overlap violation" `Quick test_overlap_violation;
    Alcotest.test_case "overlap on reused processor" `Quick test_overlap_on_reused_processor;
    Alcotest.test_case "non-adjacent duplicate breaks permutation" `Quick
      test_is_permutation_nonadjacent_duplicate;
    Alcotest.test_case "overlap hidden behind long entry" `Quick
      test_overlap_hidden_behind_long_entry;
    Alcotest.test_case "gantt with negative starts" `Quick test_pp_gantt_negative_start;
    Alcotest.test_case "forward pass" `Quick test_forward_pass;
    Alcotest.test_case "forward pass release" `Quick test_forward_pass_respects_release;
    Alcotest.test_case "left shift" `Quick test_left_shift;
    Alcotest.test_case "left shift idempotent" `Quick test_left_shift_idempotent;
    Alcotest.test_case "pretty printers" `Quick test_pp_smoke;
  ]
