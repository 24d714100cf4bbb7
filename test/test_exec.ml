(* The domain pool and everything the parallel experiment engine
   promises: submission-order results, deterministic failure, domain-safe
   telemetry merge, and byte-identical experiment output for every jobs
   value. *)

module Pool = E2e_exec.Pool
module Obs = E2e_obs.Obs
module E = E2e_experiments.Experiments

let test_map_matches_sequential () =
  let items = Array.init 97 (fun i -> i) in
  let f x = (x * x) + 3 in
  let seq = Array.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves submission order" jobs)
        seq
        (Pool.map ~jobs f items))
    [ 1; 2; 4; 7 ]

let test_init_matches_sequential () =
  let f i = Printf.sprintf "#%d" (i * 2) in
  Alcotest.(check (array string))
    "init jobs=3 equals sequential" (Array.init 23 f)
    (Pool.init ~jobs:3 23 f)

let test_more_jobs_than_items () =
  Alcotest.(check (array int)) "jobs > length" [| 10; 11 |] (Pool.init ~jobs:8 2 (fun i -> i + 10))

let test_edges () =
  Alcotest.(check (array int)) "empty array" [||] (Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |] (Pool.map ~jobs:4 (fun x -> x * 9) [| 1 |]);
  Alcotest.(check (array int)) "zero-length init" [||] (Pool.init ~jobs:4 0 (fun i -> i));
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 (fun x -> x) [| 1; 2 |]));
  Alcotest.check_raises "negative jobs rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:(-3) (fun x -> x) [| 1; 2 |]));
  Alcotest.check_raises "negative length rejected"
    (Invalid_argument "Pool.init: negative length") (fun () ->
      ignore (Pool.init ~jobs:2 (-1) (fun i -> i)))

exception Boom of int

let test_exception_propagation () =
  (* Jobs 20 and 60 both raise; the lowest submission index must win
     whatever the domain count.  The parallel path additionally runs
     every job to completion (no early stop, so which jobs ran does not
     depend on domain scheduling); jobs=1 is plain sequential fail-fast. *)
  let ran = Atomic.make 0 in
  List.iter
    (fun jobs ->
      Atomic.set ran 0;
      try
        ignore
          (Pool.init ~jobs 100 (fun i ->
               Atomic.incr ran;
               if i = 20 || i = 60 then raise (Boom i);
               i));
        Alcotest.fail "exception was swallowed"
      with Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d re-raises the lowest index" jobs)
          20 i)
    [ 1; 4 ];
  Alcotest.(check int) "parallel path ran every job" 100 (Atomic.get ran)

(* [Pool.run] keeps its worker domains parked between calls; the
   observable contract is still exactly [map]'s. *)
let test_run_matches_sequential () =
  let items = Array.init 71 (fun i -> i - 9) in
  let f x = (x * 13) + 1 in
  let seq = Array.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "run jobs=%d preserves submission order" jobs)
        seq
        (Pool.run ~jobs f items))
    [ 1; 2; 4; 7 ];
  (* Repeated calls reuse the parked pool rather than respawning. *)
  for pass = 1 to 5 do
    Alcotest.(check (array int))
      (Printf.sprintf "pool reuse pass %d" pass)
      seq
      (Pool.run ~jobs:3 f items)
  done;
  Alcotest.(check (array int)) "empty array" [||] (Pool.run ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "jobs > length" [| 4 |] (Pool.run ~jobs:8 (fun x -> x * 2) [| 2 |]);
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.run: jobs must be >= 1") (fun () ->
      ignore (Pool.run ~jobs:0 (fun x -> x) [| 1 |]))

let test_run_exception_lowest_index () =
  List.iter
    (fun jobs ->
      try
        ignore
          (Pool.run ~jobs
             (fun i -> if i = 17 || i = 53 then raise (Boom i) else i)
             (Array.init 80 (fun i -> i)));
        Alcotest.fail "exception was swallowed"
      with Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "run jobs=%d re-raises the lowest index" jobs)
          17 i)
    [ 1; 2; 4 ]

let test_run_nested_inlines () =
  (* A worker calling back into the pool must inline (no deadlock on
     the single shared pool) and still produce sequential results. *)
  let inner x = Array.fold_left ( + ) 0 (Pool.run ~jobs:4 (fun y -> y * y) (Array.init 4 (fun i -> x + i))) in
  let outer = Pool.run ~jobs:3 inner (Array.init 12 (fun i -> i)) in
  Alcotest.(check (array int)) "nested run matches sequential"
    (Array.init 12 (fun i -> inner i))
    outer

(* The caller of [run] works as rank 0, so [jobs = 2] runs on the
   caller and one worker.  Two jobs that each wait for the other can
   only finish on two executors at once, and one of them must be the
   calling domain.  The wait is bounded, so a regression fails rather
   than hangs. *)
let test_run_caller_works () =
  let arrived = Atomic.make 0 in
  let rendezvous _ =
    Atomic.incr arrived;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    (Atomic.get arrived >= 2, (Domain.self () :> int))
  in
  let results = Pool.run ~jobs:2 rendezvous [| 0; 1 |] in
  Alcotest.(check bool) "both jobs ran at once" true (Array.for_all fst results);
  Alcotest.(check bool) "the caller ran one of them" true
    (Array.exists (fun (_, d) -> d = (Domain.self () :> int)) results)

let test_resolve_jobs () =
  Alcotest.(check int) "explicit jobs honored" 4 (Pool.resolve_jobs (Some 4));
  Alcotest.check_raises "explicit jobs < 1 rejected"
    (Invalid_argument "Pool.resolve_jobs: jobs must be >= 1") (fun () ->
      ignore (Pool.resolve_jobs (Some 0)));
  Alcotest.(check bool) "default is at least 1" true (Pool.resolve_jobs None >= 1);
  Alcotest.(check bool) "recommended is at least 1" true (Pool.recommended_jobs () >= 1)

(* Telemetry written from worker domains must merge, after join, to the
   same totals a sequential run produces. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_stats false;
      Obs.reset_metrics ())
    f

let test_obs_merge_across_domains () =
  with_clean_obs @@ fun () ->
  Obs.set_stats true;
  Obs.reset_metrics ();
  let results =
    Pool.init ~jobs:4 200 (fun i ->
        Obs.incr "exec.test.jobs";
        Obs.incr ~by:2 "exec.test.double";
        Obs.observe "exec.test.hist" (float_of_int (i mod 10));
        i)
  in
  Alcotest.(check int) "results intact" 200 (Array.length results);
  Alcotest.(check int) "counter merges to the sequential total" 200
    (Obs.counter_value "exec.test.jobs");
  Alcotest.(check int) "counter with ~by merges" 400 (Obs.counter_value "exec.test.double");
  let hist =
    List.assoc "exec.test.hist" (Obs.histograms ())
  in
  Alcotest.(check int) "histogram count merges" 200 hist.Obs.count;
  Alcotest.(check (float 1e-9)) "histogram min" 0.0 hist.Obs.min;
  Alcotest.(check (float 1e-9)) "histogram max" 9.0 hist.Obs.max;
  (* 20 full passes over 0..9: sum is exact in floats. *)
  Alcotest.(check (float 1e-9)) "histogram sum merges" 900.0 hist.Obs.sum

(* The headline guarantee: experiment output is byte-identical whatever
   the domain count. *)
let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_parallel_determinism_fig9a () =
  let sweep = { E.seed = 5; trials = 40; n_tasks = 4; n_processors = 3 } in
  let seq = render (E.fig9a ~sweep ~jobs:1) in
  let par = render (E.fig9a ~sweep ~jobs:4) in
  Alcotest.(check string) "fig9a byte-identical at jobs=4" seq par

let test_parallel_determinism_periodic () =
  let seq = render (E.periodic_sweep ~trials:30 ~seed:11 ~jobs:1) in
  let par = render (E.periodic_sweep ~trials:30 ~seed:11 ~jobs:4) in
  Alcotest.(check string) "periodic sweep byte-identical at jobs=4" seq par

let test_parallel_determinism_fig9x () =
  let sweep = { E.seed = 2; trials = 15; n_tasks = 4; n_processors = 3 } in
  let seq = render (E.fig9_extensions ~sweep ~jobs:1) in
  let par = render (E.fig9_extensions ~sweep ~jobs:3) in
  Alcotest.(check string) "fig9x byte-identical at jobs=3" seq par

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "init matches sequential" `Quick test_init_matches_sequential;
    Alcotest.test_case "more jobs than items" `Quick test_more_jobs_than_items;
    Alcotest.test_case "edge cases" `Quick test_edges;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "run matches sequential on a persistent pool" `Quick
      test_run_matches_sequential;
    Alcotest.test_case "run exception propagation" `Quick test_run_exception_lowest_index;
    Alcotest.test_case "nested run inlines" `Quick test_run_nested_inlines;
    Alcotest.test_case "run caller works as rank 0" `Quick test_run_caller_works;
    Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "telemetry merges across domains" `Quick test_obs_merge_across_domains;
    Alcotest.test_case "fig9a parallel determinism" `Slow test_parallel_determinism_fig9a;
    Alcotest.test_case "periodic sweep parallel determinism" `Slow
      test_parallel_determinism_periodic;
    Alcotest.test_case "fig9x parallel determinism" `Slow test_parallel_determinism_fig9x;
  ]
