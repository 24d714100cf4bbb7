module Rat = E2e_rat.Rat
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Algo_c = E2e_core.Algo_c
module Algo_h = E2e_core.Algo_h
module Prng = E2e_prng.Prng
module Gen = E2e_workload.Feasible_gen
module Paper = E2e_workload.Paper_instances
open Helpers

let test_homogeneous_passthrough () =
  (* On an already homogeneous set, inflation is the identity, so H
     should succeed whenever A does. *)
  let shop = Paper.table2 () in
  match Algo_h.schedule shop with
  | Ok s -> assert_feasible "H on homogeneous" s
  | Error f -> Alcotest.failf "H failed: %a" Algo_h.pp_failure f

let test_table3_figure8 () =
  (* The Figure 8 situation: before compaction the schedule misses a
     deadline and violates a release; after compaction it is feasible. *)
  let shop = Paper.table3 () in
  let report = Algo_h.run shop in
  (match report.Algo_h.raw with
  | None -> Alcotest.fail "A succeeded on the inflated set by construction"
  | Some (lazy raw) ->
      let vs = Schedule.violations raw in
      Alcotest.(check bool) "uncompacted misses a deadline" true
        (List.exists (function Schedule.Deadline_missed _ -> true | _ -> false) vs);
      Alcotest.(check bool) "uncompacted violates a release" true
        (List.exists (function Schedule.Release_violated _ -> true | _ -> false) vs));
  match report.Algo_h.result with
  | Ok s -> assert_feasible "compacted schedule" s
  | Error f -> Alcotest.failf "compaction should fix table 3: %a" Algo_h.pp_failure f

let test_compaction_only_helps () =
  (* If H succeeds without compaction it must also succeed with it. *)
  let g = Prng.create 99 in
  for _ = 1 to 100 do
    let shop =
      Gen.generate g
        { Gen.n_tasks = 4; n_processors = 3; mean_tau = 1.0; stdev = 0.3; slack_factor = 1.0 }
    in
    let without = Algo_h.run ~compact:false shop in
    let with_ = Algo_h.run ~compact:true shop in
    match (without.Algo_h.result, with_.Algo_h.result) with
    | Ok _, Error _ -> Alcotest.fail "compaction made a feasible schedule infeasible"
    | _ -> ()
  done

let test_compaction_agrees_with_forward_pass () =
  (* Algorithm C is exactly the earliest-start forward pass in the
     schedule's permutation order (with the first start kept). *)
  let g = Prng.create 7 in
  for _ = 1 to 100 do
    let shop =
      Gen.generate g
        { Gen.n_tasks = 5; n_processors = 3; mean_tau = 1.0; stdev = 0.4; slack_factor = 1.0 }
    in
    let report = Algo_h.run shop in
    match report.Algo_h.raw with
    | None -> ()
    | Some (lazy raw) ->
        let compacted = Algo_c.compact ~keep_first_start:false raw in
        let order = Algo_c.order_on_processor raw 0 in
        let fp = Schedule.forward_pass (Recurrence_shop.of_traditional shop) ~order in
        if compacted.Schedule.starts <> fp.Schedule.starts then
          Alcotest.failf "compact <> forward pass:@ %a@ vs@ %a" Schedule.pp_table compacted
            Schedule.pp_table fp
  done

let test_result_always_feasible_or_error () =
  (* Whatever H returns as Ok has passed the independent checker. *)
  let g = Prng.create 13 in
  for _ = 1 to 200 do
    let shop =
      Gen.generate g
        { Gen.n_tasks = 6; n_processors = 4; mean_tau = 1.0; stdev = 0.5; slack_factor = 0.6 }
    in
    match Algo_h.schedule shop with
    | Ok s -> assert_feasible "H output" s
    | Error _ -> ()
  done

let test_success_improves_with_slack () =
  (* The headline trend of Figure 9: more slack, higher success rate. *)
  let rate slack =
    let g = Prng.create 2024 in
    let trials = 150 in
    let successes = ref 0 in
    for _ = 1 to trials do
      let shop =
        Gen.generate g
          { Gen.n_tasks = 6; n_processors = 4; mean_tau = 1.0; stdev = 0.5; slack_factor = slack }
      in
      match Algo_h.schedule shop with Ok _ -> incr successes | Error _ -> ()
    done;
    float_of_int !successes /. float_of_int trials
  in
  let tight = rate 0.2 and loose = rate 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "success(slack 3.0)=%.2f > success(slack 0.2)=%.2f" loose tight)
    true (loose > tight)

let test_success_improves_with_lower_stdev () =
  (* The other Figure 9 trend: more homogeneous task sets are easier. *)
  let rate stdev =
    let g = Prng.create 5_000 in
    let trials = 150 in
    let successes = ref 0 in
    for _ = 1 to trials do
      let shop =
        Gen.generate g
          { Gen.n_tasks = 6; n_processors = 4; mean_tau = 1.0; stdev; slack_factor = 0.6 }
      in
      match Algo_h.schedule shop with Ok _ -> incr successes | Error _ -> ()
    done;
    float_of_int !successes /. float_of_int trials
  in
  let smooth = rate 0.1 and rough = rate 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "success(stdev 0.1)=%.2f >= success(stdev 0.5)=%.2f" smooth rough)
    true (smooth >= rough)

let test_keep_first_start_literal () =
  (* Figure 7 keeps the first task's start rather than pulling it back to
     its release. *)
  let shop =
    Flow_shop.of_params [| (r 0, r 30, [| r 2; r 2 |]); (r 1, r 30, [| r 2; r 2 |]) |]
  in
  let delayed = Schedule.of_flow_shop shop [| [| r 5; r 7 |]; [| r 7; r 9 |] |] in
  let literal = Algo_c.compact ~keep_first_start:true delayed in
  check_rat "first start kept" (r 5) (Schedule.start literal ~task:0 ~stage:0);
  let eager = Algo_c.compact ~keep_first_start:false delayed in
  check_rat "eager start pulled to release" (r 0) (Schedule.start eager ~task:0 ~stage:0)

(* Figure 7 as first transcribed, with the stage's effective release in
   every max: the reference the simplified [Algo_c.compact] must match. *)
let compact_reference ~keep_first_start (s : Schedule.t) =
  let shop = s.Schedule.shop in
  let m = E2e_model.Visit.length shop.Recurrence_shop.visit in
  let tasks = shop.Recurrence_shop.tasks in
  let n = Array.length tasks in
  let order = Algo_c.order_on_processor s 0 in
  let starts = Array.make_matrix n m Rat.zero in
  let first = order.(0) in
  let release (t : E2e_model.Task.t) = t.release in
  starts.(first).(0) <-
    (if keep_first_start then Rat.max s.starts.(first).(0) (release tasks.(first))
     else release tasks.(first));
  for j = 1 to m - 1 do
    starts.(first).(j) <- Rat.add starts.(first).(j - 1) tasks.(first).proc_times.(j - 1)
  done;
  for i = 1 to n - 1 do
    let cur = order.(i) and prev = order.(i - 1) in
    let rel = ref (release tasks.(cur)) in
    for j = 0 to m - 1 do
      let prev_free = Rat.add starts.(prev).(j) tasks.(prev).proc_times.(j) in
      let eff = Rat.max !rel (E2e_model.Task.effective_release tasks.(cur) j) in
      starts.(cur).(j) <- Rat.max prev_free eff;
      rel := Rat.add starts.(cur).(j) tasks.(cur).proc_times.(j)
    done
  done;
  starts

(* Any start matrix will do: compaction only reads the processor-0
   order and the first task's start. *)
let prop_compact_matches_reference =
  QCheck.Test.make ~name:"Algo_c.compact equals Figure 7 with the effective-release max"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 1 + Prng.int g 8 and m = 1 + Prng.int g 5 in
      let shop =
        Gen.generate g
          { Gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5; slack_factor = 1.0 }
      in
      let starts =
        Array.init n (fun _ ->
            Array.init m (fun _ -> Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int 20)))
      in
      let raw = Schedule.of_flow_shop shop starts in
      List.for_all
        (fun keep_first_start ->
          (Algo_c.compact ~keep_first_start raw).Schedule.starts
          = compact_reference ~keep_first_start raw)
        [ true; false ])

(* Random arbitrary shops, and identical-length ones just under and just
   over the integer grid's bound: [run] refuses a shop exactly when the
   fuzz oracle's independent [grid_fit] puts it past the bound (the
   arbitrary shops' small values always fit; an [`Edge] draw decides
   nothing), and forcing the lazy [raw] of a report it returned never
   raises, because the int check on its starts stays eager. *)
let prop_lazy_raw_refusals =
  QCheck.Test.make ~name:"forcing raw never raises; over-grid shops refused" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let shop =
        match Prng.int g 4 with
        | 0 -> E2e_fuzz.Gen.edge_of_grid g ~over:false
        | 1 -> E2e_fuzz.Gen.edge_of_grid g ~over:true
        | _ ->
            Gen.generate g
              { Gen.n_tasks = 1 + Prng.int g 12; n_processors = 1 + Prng.int g 5;
                mean_tau = 1.0; stdev = 0.5; slack_factor = Prng.uniform g 1.0 3.0 }
      in
      let fit =
        match Flow_shop.is_identical_length shop with
        | None -> `Fits 0
        | Some tau -> E2e_fuzz.Oracle.grid_fit ~tau (E2e_fuzz.Oracle.eedf_jobs shop ~tau)
      in
      match (Algo_h.run shop, fit) with
      | exception Rat.Overflow -> ( match fit with `Fits _ -> false | `Over | `Edge -> true)
      | _, `Over -> false
      | { Algo_h.raw = None; _ }, _ -> true
      | { Algo_h.raw = Some raw; _ }, _ -> (
          match Lazy.force raw with _ -> true | exception Rat.Overflow -> false))

let suite =
  [
    Alcotest.test_case "homogeneous passthrough" `Quick test_homogeneous_passthrough;
    Alcotest.test_case "table 3 / figure 8" `Quick test_table3_figure8;
    Alcotest.test_case "compaction only helps" `Quick test_compaction_only_helps;
    Alcotest.test_case "compaction = forward pass" `Quick test_compaction_agrees_with_forward_pass;
    Alcotest.test_case "Ok results are checker-clean" `Quick test_result_always_feasible_or_error;
    Alcotest.test_case "success grows with slack" `Slow test_success_improves_with_slack;
    Alcotest.test_case "success grows as stdev shrinks" `Slow test_success_improves_with_lower_stdev;
    Alcotest.test_case "keep-first-start literal" `Quick test_keep_first_start_literal;
    to_alcotest prop_compact_matches_reference;
    to_alcotest prop_lazy_raw_refusals;
  ]
