(* The core benchmark suite, tracked in BENCH_core.json: the
   single-machine engine ([Single_machine]) against the retained
   scan-based reference, the solvers that ride on it, the admission
   service's request path, one fixed-size row per paper artifact,
   ablation, baseline and extension, and the fig9/fig10 Monte Carlo
   sweeps on one and on every recommended domain.

   Run with: dune exec bench/core_bench.exe -- --out BENCH_core.json
   Pass `--trials small` for the CI smoke configuration (sizes 10 and
   100, fewer repetitions, no sweeps).

   Protocol: fixed Prng seeds, pre-generated instance pools, [warmup]
   untimed runs, then [trials] timed runs whose extremes are dropped
   (trimmed mean).  The reference engine is O(n^3) in its region pass,
   so it is only timed up to n = 1000 — the cap is recorded in the
   output, not silently applied.  The record carries the host it ran on
   ({!E2e_obs.Obs.host}). *)

module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Periodic_shop = E2e_model.Periodic_shop
module Eedf = E2e_core.Eedf
module Algo_a = E2e_core.Algo_a
module Algo_h = E2e_core.Algo_h
module Algo_r = E2e_core.Algo_r
module Gen = E2e_workload.Feasible_gen
module Paper = E2e_workload.Paper_instances
module Analysis = E2e_periodic.Analysis
module Sim = E2e_sim
module Baselines = E2e_baselines
module Experiments = E2e_experiments.Experiments
module Admission = E2e_serve.Admission
module Cache = E2e_serve.Cache
module Batcher = E2e_serve.Batcher
module Protocol = E2e_serve.Protocol
module Ref = E2e_fuzz.Single_machine_ref
module Obs = E2e_obs.Obs
module Json = E2e_obs.Json

let pool ~seed ~count f =
  let g = Prng.create seed in
  let instances = Array.init count (fun _ -> f g) in
  let i = ref 0 in
  fun () ->
    let x = instances.(!i mod count) in
    incr i;
    x

(* [warmup] untimed calls, then [trials] timed trials of [reps] calls
   each; the mean per-call time over the trials left after dropping the
   fastest and the slowest (when there are at least four). *)
let trimmed_mean ~warmup ~trials ~reps f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let ts =
    Array.init trials (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int reps)
  in
  Array.sort Float.compare ts;
  let lo, hi = if trials >= 4 then (1, trials - 2) else (0, trials - 1) in
  let sum = ref 0. in
  for i = lo to hi do
    sum := !sum +. ts.(i)
  done;
  !sum /. float_of_int (hi - lo + 1)

(* [jobs] is set on the sweep rows only. *)
type row = { family : string; n : int; mean_s : float; trials : int; reps : int; jobs : int option }

(* {1 Workloads} *)

let identical_pool n =
  pool ~seed:(1000 + n) ~count:8 (fun g ->
      Gen.identical_length g ~n ~m:4 ~tau:Rat.one ~window:(2 * n))

let eedf_case next () = Eedf.schedule (next ())

(* The reference engine runs on the same reduced single-machine instance
   the production EEDF solves internally. *)
let eedf_ref_case next =
  let jobs shop = E2e_fuzz.Oracle.eedf_jobs shop ~tau:Rat.one in
  fun () ->
    let shop = next () in
    let js =
      Array.map
        (fun (j : E2e_core.Single_machine.job) ->
          { Ref.id = j.id; release = j.release; deadline = j.deadline })
        (jobs shop)
    in
    Ref.schedule ~tau:Rat.one js

let algo_a_case n =
  let next =
    pool ~seed:(2000 + n) ~count:8 (fun g -> Gen.homogeneous g ~n ~m:4 ~max_tau:3 ~window:(2 * n))
  in
  fun () -> Algo_a.schedule (next ())

let algo_h_case n =
  let next =
    pool ~seed:(3000 + n) ~count:8 (fun g ->
        Gen.generate g
          { Gen.n_tasks = n; n_processors = 4; mean_tau = 1.0; stdev = 0.5; slack_factor = 1.0 })
  in
  fun () -> Algo_h.schedule (next ())

(* Admission request path: n requests (submits, permuted resubmits after
   a drop, adds, queries) through the sequential engine with the
   canonical cache and the structural keyer — the configuration the
   batcher uses per batch member. *)
let serve_log n =
  let instance g =
    Recurrence_shop.of_traditional
      (Gen.generate g
         { Gen.n_tasks = 2 + Prng.int g 4; n_processors = 2 + Prng.int g 2; mean_tau = 1.0;
           stdev = 0.5; slack_factor = 1.5 })
  in
  let g = Prng.create (4000 + n) in
  List.init n (fun i ->
        let shop = "s" ^ string_of_int (Prng.int g 8) in
        match Prng.int g 10 with
        | 0 | 1 | 2 | 3 -> Admission.Submit { shop; instance = instance g }
        | 4 | 5 -> (
            Admission.Add
              {
                shop;
                tasks =
                  List.init (1 + Prng.int g 2) (fun _ ->
                      let r = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int 4) in
                      ( r,
                        Rat.add r (Rat.of_int (8 + Prng.int g 8)),
                        Array.make 2 Rat.one )) })
      | 6 -> Admission.Query { shop }
      | 7 -> Admission.Drop { shop }
      | _ -> Admission.Submit { shop = "s" ^ string_of_int (i mod 8); instance = instance g })

let serve_case n =
  let log = serve_log n in
  fun () ->
    let cache = Cache.create ~capacity:4096 in
    let keyer = Cache.Keyer.create () in
    List.fold_left
      (fun t req -> fst (Admission.apply ~cache ~keyer t req))
      Admission.empty log

(* {1 Fixed-size families}

   One row per paper artifact (Tables 1-5, the Table 4 pipeline
   simulation, one point of each of Figures 9a, 9b and 10), ablation,
   baseline and extension, at the size the paper or the experiment
   driver uses; [n] is its task (or job) count. *)

let fig_pool ~seed ~n ~m ~stdev ~slack =
  pool ~seed ~count:64 (fun g ->
      Gen.generate g
        { Gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev; slack_factor = slack })

let thunk f () = ignore (Sys.opaque_identity (f ()))

(* A shop of [n] tasks shaped like the service's large-shop benchmark
   shops: 4 stages, one arrival every 5/4 time units, each task due
   within 2-3x its total processing time, times on a 1/100 grid.
   Identical-length shops have unit times (EEDF); the others draw each
   time from [0.9, 1.1] (Algorithm H, through its inflated
   bottleneck). *)
let stream_shop ~seed ~identical n =
  let g = Prng.create seed in
  let tasks =
    Array.init n (fun id ->
        let proc_times =
          Array.init 4 (fun _ ->
              if identical then Rat.one
              else Prng.rat_uniform g ~den:100 (Rat.make 9 10) (Rat.make 11 10))
        in
        let release =
          Rat.add (Rat.make (5 * id) 4) (Prng.rat_uniform g ~den:100 Rat.zero (Rat.make 1 4))
        in
        let stretch = Prng.rat_uniform g ~den:100 (Rat.of_int 2) (Rat.of_int 3) in
        Task.make ~id ~release
          ~deadline:(Rat.add release (Rat.mul (Rat.sum_array proc_times) stretch))
          ~proc_times)
  in
  Flow_shop.make ~processors:4 tasks

(* The per-solve cost behind the service's admission solve on such
   shops: the one-call front end, which routes identical-length shops
   to EEDF and the arbitrary ones to Algorithm H. *)
let stream_solve_case ~seed ~identical n =
  let shop = stream_shop ~seed ~identical n in
  thunk (fun () -> E2e_core.Solver.solve shop)

(* The reply half of the admission path: rendering one admitted reply,
   schedule field included, for an arbitrary stream shop of [n]
   tasks. *)
let serve_render_case n =
  let instance = Recurrence_shop.of_traditional (stream_shop ~seed:(6000 + n) ~identical:false n) in
  match Admission.apply Admission.empty (Admission.Submit { shop = "L"; instance }) with
  | _, (Admission.Decided { decision = Admission.Admitted _; _ } as reply) ->
      thunk (fun () -> Protocol.render_reply (Batcher.Reply reply))
  | _ -> failwith "serve_render: the shop is not admitted"

(* The parse half of the admission path: one [submit] line of an
   arbitrary stream shop of [n] tasks on 4 stages, its times written as
   exact fractions (the wire format [render_request] gives) or as
   4-place decimals (every time of the shop is on the 1/10^4 grid). *)
let serve_parse_case ~decimals n =
  let instance = Recurrence_shop.of_traditional (stream_shop ~seed:(6300 + n) ~identical:false n) in
  let line = Protocol.render_request (Admission.Submit { shop = "L"; instance }) in
  let line =
    if not decimals then line
    else
      let decimal q =
        let v = Rat.num q * (10_000 / Rat.den q) in
        Printf.sprintf "%d.%04d" (v / 10_000) (v mod 10_000)
      in
      String.split_on_char ' ' line
      |> List.map (fun w ->
             if String.contains w '/' || (w <> "" && w.[0] >= '0' && w.[0] <= '9') then
               decimal (Rat.of_decimal_string w)
             else w)
      |> String.concat " "
  in
  match Protocol.parse_request line with
  | Ok (Protocol.Request (Admission.Submit _)) -> thunk (fun () -> Protocol.parse_request line)
  | _ -> failwith "serve_parse: the line does not parse"

(* The verify stage of the admission path: the checker on one admitted
   reply's schedule — an arbitrary stream shop of [n] tasks solved on its
   canonical form and relabelled to the candidate's task ids, as
   [Admission] hands it to the checker before commit. *)
let serve_verify_case n =
  let instance = Recurrence_shop.of_traditional (stream_shop ~seed:(6000 + n) ~identical:false n) in
  match Admission.apply Admission.empty (Admission.Submit { shop = "L"; instance }) with
  | _, Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ } ->
      thunk (fun () -> E2e_schedule.Schedule.check schedule)
  | _ -> failwith "serve_verify: the shop is not admitted"

let fixed_families () =
  (* [at] times one fixed instance, [on] cycles through a pool. *)
  let at x f = thunk (fun () -> f x) in
  let on next f = thunk (fun () -> f (next ())) in
  let h_pool seed = fig_pool ~seed ~n:6 ~m:4 ~stdev:0.5 ~slack:0.8 in
  let table4 = Paper.table4 () in
  let table4_deltas =
    match Analysis.analyse table4 with
    | Analysis.Schedulable { deltas; _ } | Analysis.Schedulable_postponed { deltas; _ } -> deltas
    | Analysis.Not_schedulable _ -> failwith "fixed_families: table 4 not schedulable"
  in
  let johnson_pool =
    pool ~seed:502 ~count:64 (fun g ->
        let far = Rat.of_int 1_000_000 in
        let shop = Gen.arbitrary g ~n:20 ~m:2 ~max_tau:3 ~window:0 in
        Flow_shop.of_params
          (Array.map (fun (t : Task.t) -> (Rat.zero, far, t.proc_times)) shop.Flow_shop.tasks))
  in
  let periodic_pool =
    pool ~seed:506 ~count:32 (fun g -> Gen.periodic g ~n:5 ~m:3 ~utilization:0.4)
  in
  let replay =
    match Algo_a.schedule (Paper.table2 ()) with
    | Ok s -> s
    | Error _ -> failwith "fixed_families: table 2 not schedulable"
  in
  let replay_actual = Sim.Dispatcher.scale_durations replay ~factor:(Rat.make 4 5) in
  let traditional f shop = f (Recurrence_shop.of_traditional shop) in
  [
    ("table1", 4, at (Paper.table1 ()) Algo_r.schedule);
    ("table2", 4, at (Paper.table2 ()) Algo_a.schedule);
    ("table3", 5, at (Paper.table3 ()) Algo_h.schedule);
    ("table4", 3, at table4 Analysis.analyse);
    ( "table4_sim",
      3,
      at table4
        (Sim.Pipeline_sim.simulate
           ~horizon:(Rat.to_float (Periodic_shop.hyperperiod table4))
           ~policy:(`Postponed_phases table4_deltas)) );
    ("table5", 2, at (Paper.table5 ()) Analysis.analyse);
    ("fig9a", 4, on (fig_pool ~seed:101 ~n:4 ~m:4 ~stdev:0.5 ~slack:0.8) Algo_h.schedule);
    ("fig9b", 6, on (fig_pool ~seed:102 ~n:6 ~m:4 ~stdev:0.5 ~slack:0.8) Algo_h.schedule);
    ("fig10", 10, on (fig_pool ~seed:103 ~n:10 ~m:4 ~stdev:0.5 ~slack:4.0) Algo_h.schedule);
    ("h_no_compaction", 6, on (h_pool 500) (fun s -> (Algo_h.run ~compact:false s).result));
    ("list_edf", 6, on (h_pool 501) (traditional Baselines.List_edf.schedule));
    ("johnson", 20, on johnson_pool Baselines.Johnson.makespan);
    ("portfolio", 6, on (h_pool 503) E2e_core.H_portfolio.schedule);
    ( "infeasibility",
      10,
      on (fig_pool ~seed:504 ~n:10 ~m:4 ~stdev:0.5 ~slack:0.5) E2e_core.Infeasibility.check );
    ( "branch_bound",
      4,
      on (fig_pool ~seed:505 ~n:4 ~m:3 ~stdev:0.4 ~slack:0.6)
        (Baselines.Branch_bound.solve ~budget:50_000) );
    ("rta", 5, on periodic_pool E2e_periodic.Response_time.analyse);
    ("preemptive_edf", 6, on (h_pool 507) (traditional Sim.Preemptive_flow_sim.run));
    ("local_search", 6, on (h_pool 508) Baselines.Local_search.schedule);
    ( "dispatch_replay",
      4,
      at replay (Sim.Dispatcher.run Sim.Dispatcher.Work_conserving ~actual:replay_actual) );
    ("serve_parse", 250, serve_parse_case ~decimals:false 250);
    ("serve_parse_decimal", 250, serve_parse_case ~decimals:true 250);
    ("serve_render", 250, serve_render_case 250);
    ("serve_verify", 250, serve_verify_case 250);
    ("stream_eedf", 250, stream_solve_case ~seed:6100 ~identical:true 250);
    ("stream_h", 250, stream_solve_case ~seed:6200 ~identical:false 250);
  ]

(* The full fig9a/fig9b/fig10 Monte Carlo sweeps at reduced trial
   counts ([n] = trials per point), rendered to a null formatter so the
   timing covers generation, scheduling and aggregation.  The output is
   byte-identical at every [jobs] (per-trial PRNG streams), so the
   one-domain and many-domain rows time the same work. *)
let sweep_families =
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let module E = Experiments in
  let sweep family (run : ?sweep:E.sweep -> ?jobs:int -> Format.formatter -> unit) default
      trials =
    (family, trials, fun ~jobs -> run ~sweep:{ default with E.trials } ~jobs null_ppf)
  in
  [
    sweep "fig9a_sweep" E.fig9a E.default_fig9a 150;
    sweep "fig9b_sweep" E.fig9b E.default_fig9b 150;
    sweep "fig10_sweep" E.fig10 E.default_fig10 100;
  ]

(* {1 Harness} *)

let reps_for ~n ~base = Stdlib.max 1 (base / n)

let run_all ~small =
  let sizes = if small then [ 10; 100 ] else [ 10; 100; 1000; 5000 ] in
  let ref_cap = 1000 in
  let def_warmup = if small then 1 else 2 in
  let def_trials = if small then 3 else 7 in
  let rep_base = if small then 200 else 1000 in
  let case ?(warmup = def_warmup) ?(trials = def_trials) ?reps ?jobs family n f =
    let reps = match reps with Some r -> r | None -> reps_for ~n ~base:rep_base in
    let mean_s = trimmed_mean ~warmup ~trials ~reps f in
    let on_jobs = match jobs with Some j -> Printf.sprintf " jobs=%d" j | None -> "" in
    Printf.eprintf "%-27s n=%-5d%s %12.1f us/call\n%!" family n on_jobs (mean_s *. 1e6);
    { family; n; mean_s; trials; reps; jobs }
  in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  List.iter
    (fun n ->
      let next = identical_pool n in
      push (case "eedf" n (eedf_case next));
      if n <= ref_cap then begin
        let next = identical_pool n in
        (* The cubic reference takes tens of seconds per call at
           n = 1000; a single warmup and three trials keep the full run
           bounded while the variance stays well under the 5x margin of
           interest. *)
        let warmup, trials = if n > 100 then (1, 3) else (def_warmup, def_trials) in
        push (case ~warmup ~trials "eedf_ref" n (eedf_ref_case next))
      end;
      push (case "algo_a" n (algo_a_case n));
      push (case "algo_h" n (algo_h_case n));
      push (case "serve_admission" n (serve_case n)))
    sizes;
  List.iter (fun (family, n, f) -> push (case family n f)) (fixed_families ());
  if not small then begin
    let jobs_levels = List.sort_uniq compare [ 1; Domain.recommended_domain_count () ] in
    List.iter
      (fun (family, n, run) ->
        List.iter
          (fun jobs -> push (case ~reps:1 ~jobs family n (fun () -> run ~jobs)))
          jobs_levels)
      sweep_families
  end;
  (List.rev !rows, sizes, ref_cap)

let mean_of ?jobs rows family n =
  List.find_map
    (fun r ->
      if r.family = family && r.n = n && r.jobs = jobs && r.mean_s > 0. then Some r.mean_s
      else None)
    rows

let speedups rows =
  List.filter_map
    (fun { family; n; mean_s; _ } ->
      if family <> "eedf_ref" then None
      else Option.map (fun fast -> (n, mean_s /. fast)) (mean_of rows "eedf" n))
    rows

(* The one-domain over the many-domain sweep time, per sweep. *)
let sweep_speedups rows =
  List.filter_map
    (fun { family; n; mean_s; jobs; _ } ->
      match jobs with
      | Some j when j > 1 ->
          Option.map (fun seq -> (family, j, seq /. mean_s)) (mean_of ~jobs:1 rows family n)
      | _ -> None)
    rows

let round digits x =
  let k = 10. ** float_of_int digits in
  Float.round (x *. k) /. k

let us x = Json.Num (round 3 (x *. 1e6))

let row_json { family; n; mean_s; trials; reps; jobs } =
  Json.Obj
    ([
       ("family", Json.Str family);
       ("n", Json.int n);
       ("mean_us", us mean_s);
       ("trials", Json.int trials);
       ("reps", Json.int reps);
     ]
    @ match jobs with None -> [] | Some j -> [ ("jobs", Json.int j) ])

let ratios_json l =
  Json.List
    (List.map
       (fun (n, ratio) -> Json.Obj [ ("n", Json.int n); ("ratio", Json.Num (round 2 ratio)) ])
       l)

let record rows sizes ref_cap ~small =
  Json.Obj
    [
      ("mode", Json.Str (if small then "small" else "full"));
      ("host", Obs.host ());
      ("sizes", Json.List (List.map Json.int sizes));
      ("eedf_ref_max_n", Json.int ref_cap);
      ("rows", Json.List (List.map row_json rows));
      ("speedup_eedf_vs_ref", ratios_json (speedups rows));
    ]

let () =
  let out = ref "BENCH_core.json" in
  let small = ref false in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--trials" :: ("small" | "Small") :: rest ->
        small := true;
        parse rest
    | "--trials" :: ("full" | "Full") :: rest ->
        small := false;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: core_bench [--out FILE] [--trials full|small] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows, sizes, ref_cap = run_all ~small:!small in
  Out_channel.with_open_text !out (fun oc ->
      Out_channel.output_string oc (Json.to_string (record rows sizes ref_cap ~small:!small));
      Out_channel.output_char oc '\n');
  List.iter
    (fun (n, ratio) -> Printf.printf "EEDF speedup vs reference at n=%d: %.1fx\n" n ratio)
    (speedups rows);
  List.iter
    (fun (family, jobs, ratio) ->
      Printf.printf "%s speedup on %d domains vs 1: %.2fx\n" family jobs ratio)
    (sweep_speedups rows);
  Printf.printf "wrote %s\n" !out
