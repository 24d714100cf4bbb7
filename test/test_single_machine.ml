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

(* {1 The integer grid and its refusal}

   Every entry point runs on the instance's integer grid and must equal
   the scan-based reference there; the [grid] field of the
   [single_machine.schedule] span is the lcm of the denominators.  An
   instance the grid cannot hold is refused with [Rat.Overflow] by
   every entry point, before any span opens. *)

module Ref = E2e_fuzz.Single_machine_ref

let to_ref jobs =
  Array.map (fun (j : Sm.job) -> { Ref.id = j.id; release = j.release; deadline = j.deadline }) jobs

(* [None] when the reference overflows. *)
let reference ~tau jobs =
  let rj = to_ref jobs in
  match
    ( Ref.forbidden_regions ~tau rj,
      Ref.schedule ~tau rj,
      Ref.edf_schedule_no_regions ~tau rj )
  with
  | regions, starts, plain ->
      Some
        ( Result.map (List.map (fun (g : Ref.region) -> (g.left, g.right))) regions,
          starts,
          plain )
  | exception Rat.Overflow -> None

(* [None] when any entry point refuses the instance; a refusal by one
   but not all of them fails the test. *)
let engine ~tau jobs =
  let attempt f = match f () with v -> Some v | exception Rat.Overflow -> None in
  match
    ( attempt (fun () ->
          Result.map
            (List.map (fun (g : Sm.region) -> (g.left, g.right)))
            (Sm.forbidden_regions ~tau jobs)),
      attempt (fun () -> Sm.schedule ~tau jobs),
      attempt (fun () -> Sm.edf_schedule_no_regions ~tau jobs) )
  with
  | Some regions, Some starts, Some plain -> Some (regions, starts, plain)
  | None, None, None -> None
  | _ -> Alcotest.fail "the entry points disagree on whether the instance fits the grid"

(* The [grid] field of the schedule span, or [None] when no span opened
   (the grid check refused the instance). *)
let grid_of ~tau jobs =
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      try ignore (Sm.schedule ~tau jobs) with Rat.Overflow -> ());
  List.find_map
    (fun (e : Obs.event) ->
      if e.name = "single_machine.schedule" then
        match List.assoc_opt "grid" e.fields with Some (Obs.Int l) -> Some l | _ -> None
      else None)
    (events ())

let check_against_reference what ~tau jobs =
  match (reference ~tau jobs, engine ~tau jobs) with
  | None, _ -> Alcotest.failf "%s: the reference overflows" what
  | _, None -> Alcotest.failf "%s: the engine refuses the instance" what
  | Some expected, Some answers ->
      Alcotest.(check bool) (what ^ ": regions, starts and verdicts equal the reference") true
        (answers = expected)

(* Fractional releases, deadlines and tau on a 1/4 grid, with forbidden
   regions: the grid scales by 4. *)
let on_grid_jobs () =
  [|
    job 0 (q "0") (q "10.5");
    job 1 (q "0.75") (q "3.5");
    job 2 (q "1.25") (q "4.75");
    job 3 (Rat.make 7 2) (q "6.25");
  |]

let test_on_grid_matches_reference () =
  let tau = Rat.make 3 2 in
  let jobs = on_grid_jobs () in
  Alcotest.(check (option int)) "runs on the 1/4 grid" (Some 4) (grid_of ~tau jobs);
  (match Sm.forbidden_regions ~tau jobs with
  | Ok (_ :: _) -> ()
  | _ -> Alcotest.fail "the instance has forbidden regions");
  check_against_reference "on grid" ~tau jobs

(* Coprime denominators near 2^20: their lcm passes the grid limit, so
   every entry point refuses.  The generator's draws just under the
   bound still equal the reference; those just over it are refused. *)
let test_off_grid_refused () =
  let primes = [| 1_000_003; 1_000_033; 1_000_037; 1_000_039; 1_000_081 |] in
  let tau = Rat.one in
  let jobs =
    Array.mapi
      (fun i p ->
        let release = Rat.add (Rat.of_int (i / 2)) (Rat.make 1 p) in
        job i release (Rat.add release (Rat.make (5 * p + 1) (2 * p))))
      primes
  in
  Alcotest.(check bool) "coprime denominators: refused" true (engine ~tau jobs = None);
  Alcotest.(check (option int)) "no schedule span" None (grid_of ~tau jobs);
  for seed = 1 to 8 do
    List.iter
      (fun over ->
        let fs = E2e_fuzz.Gen.edge_of_grid (Prng.create seed) ~over in
        let tau = Option.get (E2e_model.Flow_shop.is_identical_length fs) in
        let jobs = E2e_fuzz.Oracle.eedf_jobs fs ~tau in
        if over then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d just over the bound: refused" seed)
            true (engine ~tau jobs = None)
        else check_against_reference (Printf.sprintf "seed %d just under the bound" seed) ~tau jobs)
      [ false; true ]
  done

(* Hostile magnitudes: denominators up to 2^30, widths up to 2^40 time
   units and offsets as large as the denominators leave room for.  The
   offset is bounded by [max_int / 8 / dmax^2] and the width by
   [2^56 / dmax], so every sum of two constructed values (whose
   denominators multiply to at most [dmax^2]) keeps its numerator below
   2^61: the draws are built within the rationals' range, and the
   property checks them instead of discarding them. *)
let hostile_jobs g =
  let n = 1 + Prng.int g 8 in
  let bits = Prng.int g 31 in
  let dmax = 1 lsl bits in
  let den () = 1 + Prng.int g dmax in
  let offset = (if Prng.bool g then 1 else -1) * Prng.int g (1 + (max_int / 8 / dmax / dmax)) in
  let width = 1 lsl Prng.int g (Int.min 41 (57 - bits)) in
  let tau = Rat.make (1 + Prng.int g width) (den ()) in
  let jobs =
    Array.init n (fun id ->
        let d = den () in
        let release = Rat.add (Rat.of_int offset) (Rat.make (Prng.int g (4 * width)) d) in
        let d = if Prng.bool g then d else den () in
        job id release (Rat.add release (Rat.make (Prng.int g (8 * width)) d)))
  in
  (tau, jobs)

(* The draws the property sees: over seeds 0-999, how many are built
   at all and how many of those the engine answers (the rest it
   refuses as off the grid). *)
let test_hostile_draws_are_checked () =
  let built = ref 0 and on_grid = ref 0 in
  for seed = 0 to 999 do
    match hostile_jobs (Prng.create seed) with
    | exception Rat.Overflow -> ()
    | tau, jobs ->
        incr built;
        if engine ~tau jobs <> None then incr on_grid
  done;
  Alcotest.(check bool) (Printf.sprintf "%d of 1000 draws built (floor 950)" !built) true
    (!built >= 950);
  Alcotest.(check bool) (Printf.sprintf "%d draws on the grid (floor 200)" !on_grid) true
    (!on_grid >= 200)

(* On the grid the engine equals the reference wherever the reference
   answers (it answers even where the reference overflows).  It refuses
   exactly the instances past the documented bound, computed
   independently by [Oracle.grid_fit], and a refusal happens before the
   schedule span opens. *)
let prop_hostile_magnitudes =
  QCheck.Test.make ~name:"single machine: hostile magnitudes match the reference" ~count:1000
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      match hostile_jobs (Prng.create seed) with
      | exception Rat.Overflow -> QCheck.assume_fail ()
      | tau, jobs -> (
          let grid = grid_of ~tau jobs in
          let matches answers =
            match reference ~tau jobs with None -> true | Some expected -> answers = expected
          in
          match (E2e_fuzz.Oracle.grid_fit ~tau jobs, engine ~tau jobs) with
          | (`Over | `Edge), None -> grid = None
          | `Fits l, Some answers -> grid = Some l && matches answers
          | `Edge, Some answers -> grid <> None && matches answers
          | `Over, Some _ | `Fits _, None -> false))

(* Events print rationals even when the engine ran on the grid: the
   region endpoints and the infeasible release come back through the
   grid's scale before they are emitted. *)
let test_grid_telemetry_prints_rationals () =
  let tau = Rat.make 3 2 in
  let jobs = on_grid_jobs () in
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  Fun.protect ~finally:Obs.uninstall (fun () -> ignore (Sm.schedule ~tau jobs));
  let emitted =
    List.filter_map
      (fun (e : Obs.event) ->
        if e.name = "single_machine.forbidden_region" then
          match e.fields with
          | [ ("left", Obs.Str l); ("right", Obs.Str r) ] -> Some (l, r)
          | _ -> None
        else None)
      (events ())
  in
  let expected =
    match Sm.forbidden_regions ~tau jobs with
    | Ok regions ->
        List.map (fun (g : Sm.region) -> (Rat.to_string g.left, Rat.to_string g.right)) regions
    | Error `Infeasible -> Alcotest.fail "feasible"
  in
  Alcotest.(check (list (pair string string))) "region endpoints as rationals" expected emitted;
  Alcotest.(check (list (pair string string))) "the regions (1/4, 3/4) and (13/4, 7/2)"
    [ ("1/4", "3/4"); ("13/4", "7/2") ] emitted;
  (* Two jobs of length 3/2 in a window of 5/2 from release 1/4. *)
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      ignore (Sm.schedule ~tau [| job 0 (q "0.25") (q "2.75"); job 1 (q "0.25") (q "2.75") |]));
  let infeasible (e : Obs.event) = e.name = "single_machine.infeasible_window" in
  match List.filter infeasible (events ()) with
  | [ e ] ->
      Alcotest.(check bool) "release 1/4" true (e.fields = [ ("release", Obs.Str "1/4") ])
  | es -> Alcotest.failf "expected one infeasible_window event, got %d" (List.length es)

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
    Alcotest.test_case "on-grid instance equals the reference" `Quick
      test_on_grid_matches_reference;
    Alcotest.test_case "off-grid instances are refused" `Quick test_off_grid_refused;
    to_alcotest prop_hostile_magnitudes;
    Alcotest.test_case "hostile draws are built and checked" `Quick
      test_hostile_draws_are_checked;
    Alcotest.test_case "grid telemetry prints rationals" `Quick
      test_grid_telemetry_prints_rationals;
  ]
