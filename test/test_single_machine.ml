module Rat = E2e_rat.Rat
module Sm = E2e_core.Single_machine
module Prng = E2e_prng.Prng
module Obs = E2e_obs.Obs
open Helpers

let job id release deadline = { Sm.id; release; deadline }

(* The canonical example showing plain EDF is not optimal for arbitrary
   release times: a long-window job released first grabs the machine and
   makes a tight later job miss; the forbidden region forces the machine
   to wait.  tau = 2; J0: r=0, d=10; J1: r=1, d=3. *)
let trap_instance () = [| job 0 (r 0) (r 10); job 1 (r 1) (r 3) |]

(* The miss is reported with the caller's id, not the job's position:
   the relabelled trap (ids 7 and 3) must report 3. *)
let test_plain_edf_fails_trap () =
  let expect_miss what expected jobs =
    match Sm.edf_schedule_no_regions ~tau:(r 2) jobs with
    | Error (`Deadline_missed i) -> Alcotest.(check int) (what ^ ": missed job") expected i
    | Ok _ -> Alcotest.failf "%s: plain EDF should fail on the trap instance" what
  in
  expect_miss "trap" 1 (trap_instance ());
  expect_miss "relabelled trap" 3 [| job 7 (r 0) (r 10); job 3 (r 1) (r 3) |]

let test_regions_solve_trap () =
  let jobs = trap_instance () in
  match Sm.schedule ~tau:(r 2) jobs with
  | Error `Infeasible -> Alcotest.fail "trap instance is feasible"
  | Ok starts ->
      Alcotest.(check bool) "valid" true (Sm.feasible_starts ~tau:(r 2) jobs starts);
      (* J1 must run at time 1; J0 therefore cannot start in (-1, 1). *)
      check_rat "tight job at its release" (r 1) starts.(1)

let test_trap_regions () =
  match Sm.forbidden_regions ~tau:(r 2) (trap_instance ()) with
  | Error `Infeasible -> Alcotest.fail "feasible"
  | Ok regions ->
      Alcotest.(check bool) "some region before t=1" true
        (List.exists
           (fun { Sm.left; right } -> Rat.(left < r 1) && Rat.(right = r 1))
           regions)

(* The kept telemetry: the finished state's regions, one event each,
   and their count. *)
let test_schedule_telemetry () =
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      ignore (Sm.schedule ~tau:(r 2) (trap_instance ())));
  let named name = List.filter (fun (e : Obs.event) -> e.name = name) (events ()) in
  (match named "single_machine.forbidden_region" with
  | [ e ] ->
      let expected =
        [ ("left", Obs.Str (Rat.to_string (r (-1)))); ("right", Obs.Str (Rat.to_string (r 1))) ]
      in
      Alcotest.(check bool) "region (-1, 1)" true (e.fields = expected)
  | es -> Alcotest.failf "expected one forbidden_region event, got %d" (List.length es));
  match named "single_machine.regions" with
  | [ e ] -> Alcotest.(check bool) "count 1" true (e.fields = [ ("count", Obs.Int 1) ])
  | es -> Alcotest.failf "expected one regions event, got %d" (List.length es)

let test_infeasible_detected () =
  (* Two unit jobs in one unit window. *)
  let jobs = [| job 0 (r 0) (r 1); job 1 (r 0) (r 1) |] in
  (match Sm.schedule ~tau:(r 1) jobs with
  | Error `Infeasible -> ()
  | Ok _ -> Alcotest.fail "should be infeasible");
  Alcotest.(check bool) "brute force agrees" false (Sm.brute_force_feasible ~tau:(r 1) jobs)

let test_empty_and_single () =
  (match Sm.schedule ~tau:(r 1) [||] with
  | Ok [||] -> ()
  | _ -> Alcotest.fail "empty instance");
  match Sm.schedule ~tau:(r 3) [| job 0 (r 5) (r 8) |] with
  | Ok starts -> check_rat "single job at release" (r 5) starts.(0)
  | Error _ -> Alcotest.fail "single job fits exactly"

let test_integral_release_edf_suffices () =
  (* With all parameters multiples of tau, no forbidden region is ever
     needed (the paper's "simply use classical EEDF" case). *)
  let jobs = [| job 0 (r 0) (r 4); job 1 (r 2) (r 6); job 2 (r 0) (r 8) |] in
  match Sm.forbidden_regions ~tau:(r 2) jobs with
  | Ok regions -> Alcotest.(check int) "no regions" 0 (List.length regions)
  | Error `Infeasible -> Alcotest.fail "feasible"

let test_schedule_matches_brute_force_on_example () =
  let jobs =
    [| job 0 (q "0.5") (r 4); job 1 (r 0) (q "2.5"); job 2 (r 1) (r 7); job 3 (r 3) (r 9) |]
  in
  let tau = r 2 in
  Alcotest.(check bool) "brute force feasible" true (Sm.brute_force_feasible ~tau jobs);
  match Sm.schedule ~tau jobs with
  | Ok starts -> Alcotest.(check bool) "valid" true (Sm.feasible_starts ~tau jobs starts)
  | Error `Infeasible -> Alcotest.fail "EEDF must find it"

(* Optimality property: on random small instances, EEDF-with-regions
   succeeds exactly when exhaustive search finds a feasible order; and
   whatever it outputs passes the independent validity check. *)
let random_jobs g n =
  Array.init n (fun id ->
      let release = Prng.rat_uniform g ~den:4 Rat.zero (r 6) in
      let window = Prng.rat_uniform g ~den:4 (r 2) (r 8) in
      { Sm.id; release; deadline = Rat.add release window })

let prop_optimality =
  QCheck.Test.make ~name:"single machine: EEDF+regions optimal vs brute force" ~count:400
    (QCheck.make
       ~print:(fun seed -> "seed " ^ string_of_int seed)
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 5 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      let exact = Sm.brute_force_feasible ~tau jobs in
      match Sm.schedule ~tau jobs with
      | Ok starts -> exact && Sm.feasible_starts ~tau jobs starts
      | Error `Infeasible -> not exact)

let prop_plain_edf_never_beats_exact =
  QCheck.Test.make ~name:"single machine: plain EDF sound (when it succeeds, valid)"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 5 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      match Sm.edf_schedule_no_regions ~tau jobs with
      | Ok starts -> Sm.feasible_starts ~tau jobs starts
      | Error (`Deadline_missed _) -> true)

let prop_regions_disjoint_sorted =
  QCheck.Test.make ~name:"single machine: forbidden regions sorted and disjoint" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 6 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      match Sm.forbidden_regions ~tau jobs with
      | Error `Infeasible -> true
      | Ok regions ->
          let rec ok = function
            | { Sm.left; right } :: ({ Sm.left = l2; _ } as r2) :: rest ->
                Rat.(left < right) && Rat.(right <= l2) && ok (r2 :: rest)
            | [ { Sm.left; right } ] -> Rat.(left < right)
            | [] -> true
          in
          ok regions)

let suite =
  [
    Alcotest.test_case "plain EDF fails the trap" `Quick test_plain_edf_fails_trap;
    Alcotest.test_case "regions solve the trap" `Quick test_regions_solve_trap;
    Alcotest.test_case "trap yields a region" `Quick test_trap_regions;
    Alcotest.test_case "infeasibility detected" `Quick test_infeasible_detected;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_single;
    Alcotest.test_case "grid-aligned needs no regions" `Quick test_integral_release_edf_suffices;
    Alcotest.test_case "worked example" `Quick test_schedule_matches_brute_force_on_example;
    to_alcotest prop_optimality;
    to_alcotest prop_plain_edf_never_beats_exact;
    to_alcotest prop_regions_disjoint_sorted;
    Alcotest.test_case "schedule telemetry" `Quick test_schedule_telemetry;
  ]
