module Rat = E2e_rat.Rat
module Obs = E2e_obs.Obs
module Json = E2e_obs.Json
module Prng = E2e_prng.Prng
module Gen = E2e_workload.Feasible_gen
module Paper = E2e_workload.Paper_instances
module Algo_h = E2e_core.Algo_h
module Solver = E2e_core.Solver
module Schedule = E2e_schedule.Schedule

(* Leave the global telemetry state exactly as we found it, whatever the
   test body does — other suites rely on telemetry being off. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.uninstall ();
      Obs.set_stats false;
      Obs.reset_metrics ();
      Obs.Clock.use_wall_clock ())
    f

(* A hand-cranked clock: every read advances by [step] seconds. *)
let install_fake_clock ?(step = 0.5) () =
  let t = ref 0.0 in
  Obs.Clock.set_source (fun () ->
      let v = !t in
      t := v +. step;
      v)

let test_span_nesting () =
  with_clean_obs @@ fun () ->
  install_fake_clock ();
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  let r =
    Obs.span "outer" (fun () ->
        Obs.event "mark" ~fields:[ ("x", Obs.Int 1) ];
        Obs.span "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "span returns the body's value" 42 r;
  let es = events () in
  let names = List.map (fun (e : Obs.event) -> e.name) es in
  Alcotest.(check (list string))
    "event order" [ "outer"; "mark"; "inner"; "inner"; "outer" ] names;
  (match es with
  | [ ob; mark; ib; ie; oe ] ->
      Alcotest.(check bool) "outer begins" true (ob.kind = Obs.Span_begin);
      Alcotest.(check bool) "mark is instant" true (mark.kind = Obs.Instant);
      Alcotest.(check int) "outer at depth 0" 0 ob.depth;
      Alcotest.(check int) "mark inside outer" 1 mark.depth;
      Alcotest.(check int) "inner inside outer" 1 ib.depth;
      (match (ie.kind, oe.kind) with
      | Obs.Span_end di, Obs.Span_end d_o ->
          Alcotest.(check bool) "durations positive" true (di > 0.0 && d_o > 0.0);
          Alcotest.(check bool) "outer lasts at least as long as inner" true (d_o >= di)
      | _ -> Alcotest.fail "expected two span ends");
      (* Timestamps never go backwards. *)
      let ts = List.map (fun (e : Obs.event) -> e.ts) es in
      Alcotest.(check bool) "timestamps non-decreasing" true
        (List.sort compare ts = ts)
  | _ -> Alcotest.fail "expected exactly 5 events")

let test_span_exception_safe () =
  with_clean_obs @@ fun () ->
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let es = events () in
  Alcotest.(check int) "begin and end emitted despite the raise" 2 (List.length es);
  (* Depth unwound: a following top-level event sits at depth 0. *)
  Obs.event "after";
  match List.rev (events ()) with
  | e :: _ -> Alcotest.(check int) "depth restored" 0 e.depth
  | [] -> Alcotest.fail "no events"

let test_counters () =
  with_clean_obs @@ fun () ->
  Obs.set_stats true;
  Obs.reset_metrics ();
  Obs.incr "c";
  Obs.incr "c" ~by:4;
  Obs.incr "other";
  Obs.gauge "g" 2.5;
  Obs.gauge "g" 3.5;
  Obs.observe "h" 1.0;
  Obs.observe "h" 3.0;
  Alcotest.(check int) "counter accumulates" 5 (Obs.counter_value "c");
  Alcotest.(check int) "independent counter" 1 (Obs.counter_value "other");
  Alcotest.(check int) "unknown counter is 0" 0 (Obs.counter_value "nope");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("c", 5); ("other", 1) ]
    (Obs.counters ());
  (match Obs.gauges () with
  | [ ("g", v) ] -> Alcotest.(check (float 0.0)) "gauge keeps latest" 3.5 v
  | _ -> Alcotest.fail "expected one gauge");
  (match Obs.histograms () with
  | [ ("h", h) ] ->
      Alcotest.(check int) "histogram count" 2 h.Obs.count;
      Alcotest.(check (float 1e-9)) "histogram sum" 4.0 h.Obs.sum;
      Alcotest.(check (float 0.0)) "histogram min" 1.0 h.Obs.min;
      Alcotest.(check (float 0.0)) "histogram max" 3.0 h.Obs.max
  | _ -> Alcotest.fail "expected one histogram");
  Obs.reset_metrics ();
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.counter_value "c");
  Alcotest.(check bool) "reset clears registry" true (Obs.counters () = [])

(* Several systhreads of one domain share its store (the TCP
   listener's reader threads do).  Eight threads bump a shared counter
   and histogram and register thousands of fresh names each, so the
   store's tables resize while other threads update them, and a reader
   domain merges throughout.  The merged totals must come out exact.
   Without the store's mutex a preemption inside a resize loses
   updates, which this test reports in most runs. *)
let test_threads_share_a_store () =
  with_clean_obs @@ fun () ->
  Obs.set_stats true;
  Obs.reset_metrics ();
  let threads = 8 and per_thread = 16000 in
  let stop = Atomic.make false in
  let merger =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Obs.counters ());
          ignore (Obs.histograms ())
        done)
  in
  let worker tid =
    for i = 0 to per_thread - 1 do
      Obs.incr "mt.shared";
      Obs.incr (Printf.sprintf "mt.fresh.%d.%d" tid i);
      Obs.observe "mt.hist" (float_of_int i);
      Obs.gauge "mt.gauge" (float_of_int i);
      if i land 63 = 0 then Thread.yield ()
    done
  in
  List.init threads (fun tid -> Thread.create worker tid) |> List.iter Thread.join;
  Atomic.set stop true;
  Domain.join merger;
  let total = threads * per_thread in
  Alcotest.(check int) "shared counter exact" total (Obs.counter_value "mt.shared");
  let fresh =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"mt.fresh." name)
      (Obs.counters ())
  in
  Alcotest.(check int) "every fresh name registered once" total (List.length fresh);
  Alcotest.(check bool) "every fresh counter is 1" true
    (List.for_all (fun (_, v) -> v = 1) fresh);
  match List.assoc_opt "mt.hist" (Obs.histograms ()) with
  | Some h ->
      Alcotest.(check int) "histogram count exact" total h.Obs.count;
      Alcotest.(check (float 1e-6)) "histogram sum exact"
        (float_of_int (threads * (per_thread * (per_thread - 1) / 2)))
        h.Obs.sum
  | None -> Alcotest.fail "histogram missing"

let test_disabled_is_inert () =
  with_clean_obs @@ fun () ->
  Obs.set_stats false;
  Obs.reset_metrics ();
  Obs.incr "ghost";
  Obs.gauge "ghost" 1.0;
  Obs.observe "ghost" 1.0;
  Alcotest.(check bool) "no sink, no stats" false (Obs.enabled ());
  Alcotest.(check int) "counter ignored while off" 0 (Obs.counter_value "ghost");
  Alcotest.(check bool) "registry untouched" true
    (Obs.counters () = [] && Obs.gauges () = [] && Obs.histograms () = [])

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 0.0;
      Json.Num (-17.0);
      Json.Num 3.141592653589793;
      Json.Num 1e300;
      Json.Str "plain";
      Json.Str "quotes \" and \\ and \ncontrol\tchars";
      Json.List [ Json.Num 1.0; Json.Str "two"; Json.Null ];
      Json.Obj [ ("a", Json.int 1); ("nested", Json.Obj [ ("b", Json.List [] ) ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' -> Alcotest.(check string) ("round trip of " ^ s) s (Json.to_string v')
      | Error msg -> Alcotest.failf "failed to parse %s: %s" s msg)
    cases;
  (* Integral floats print as JSON integers. *)
  Alcotest.(check string) "integral float prints as int" "7" (Json.to_string (Json.Num 7.0));
  (* Malformed input is an error, not an exception. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parsed malformed input %S" s
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "truffle"; "{\"a\" 1}"; "1 2" ]

let run_solver_under_sink make_sink =
  let path = Filename.temp_file "e2e_obs_test" ".json" in
  let oc = open_out path in
  Obs.install (make_sink oc);
  let shop = Paper.table3 () in
  ignore (Algo_h.schedule shop);
  let g = Prng.create 11 in
  ignore
    (E2e_sim.Preemptive_flow_sim.run
       (E2e_model.Recurrence_shop.of_traditional
          (Gen.generate g
             {
               Gen.n_tasks = 4;
               n_processors = 3;
               mean_tau = 1.0;
               stdev = 0.3;
               slack_factor = 1.0;
             })));
  Obs.uninstall ();
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  contents

let test_jsonl_sink_roundtrip () =
  with_clean_obs @@ fun () ->
  let contents = run_solver_under_sink Obs.Sink.jsonl in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
  in
  Alcotest.(check bool) "emitted at least a span and some events" true
    (List.length lines > 5);
  let seen_types = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.failf "bad JSONL line %S: %s" line msg
      | Ok v -> (
          (match Json.member "ts" v with
          | Some (Json.Num _) -> ()
          | _ -> Alcotest.failf "line without numeric ts: %s" line);
          (match Json.member "name" v with
          | Some (Json.Str _) -> ()
          | _ -> Alcotest.failf "line without name: %s" line);
          match Json.member "type" v with
          | Some (Json.Str t) -> Hashtbl.replace seen_types t ()
          | _ -> Alcotest.failf "line without type: %s" line))
    lines;
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " records present") true (Hashtbl.mem seen_types t))
    [ "span_begin"; "span_end"; "event" ]

let test_chrome_sink_valid () =
  with_clean_obs @@ fun () ->
  let contents = run_solver_under_sink Obs.Sink.chrome in
  match Json.of_string contents with
  | Error msg -> Alcotest.failf "chrome trace is not valid JSON: %s" msg
  | Ok (Json.List records) ->
      Alcotest.(check bool) "trace is non-empty" true (records <> []);
      let phases = Hashtbl.create 4 in
      List.iter
        (fun r ->
          (match Json.member "name" r with
          | Some (Json.Str _) -> ()
          | _ -> Alcotest.fail "record without name");
          (match Json.member "ts" r with
          | Some (Json.Num ts) ->
              Alcotest.(check bool) "microsecond ts non-negative" true (ts >= 0.0)
          | _ -> Alcotest.fail "record without ts");
          (match (Json.member "pid" r, Json.member "tid" r) with
          | Some (Json.Num _), Some (Json.Num _) -> ()
          | _ -> Alcotest.fail "record without pid/tid");
          match Json.member "ph" r with
          | Some (Json.Str ph) -> Hashtbl.replace phases ph ()
          | _ -> Alcotest.fail "record without ph")
        records;
      Alcotest.(check bool) "has span begins and ends" true
        (Hashtbl.mem phases "B" && Hashtbl.mem phases "E")
  | Ok _ -> Alcotest.fail "chrome trace should be a JSON array"

(* The acceptance guard: telemetry must never change what a solver
   computes.  Compare schedules field by field with exact rationals. *)
let same_schedule (a : Schedule.t) (b : Schedule.t) =
  let same_matrix x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun r1 r2 -> Array.for_all2 Rat.equal r1 r2) x y
  in
  same_matrix a.Schedule.starts b.Schedule.starts

let test_determinism_guard () =
  let g = Prng.create 2024 in
  let shops =
    Paper.table3 ()
    :: List.init 20 (fun _ ->
           Gen.generate g
             {
               Gen.n_tasks = 5;
               n_processors = 4;
               mean_tau = 1.0;
               stdev = 0.4;
               slack_factor = 0.9;
             })
  in
  let outcome shop =
    match Solver.solve shop with
    | Solver.Feasible (s, which) -> `Feasible (s, which)
    | Solver.Proved_infeasible r -> `Infeasible r
    | Solver.Heuristic_failed -> `Failed
  in
  let quiet = List.map outcome shops in
  let noisy =
    with_clean_obs (fun () ->
        let sink, _ = Obs.Sink.memory () in
        Obs.install sink;
        Obs.set_stats true;
        List.map outcome shops)
  in
  List.iter2
    (fun q n ->
      match (q, n) with
      | `Feasible (s1, w1), `Feasible (s2, w2) ->
          Alcotest.(check bool) "same algorithm chosen" true (w1 = w2);
          Alcotest.(check bool) "bit-identical schedule" true (same_schedule s1 s2)
      | `Infeasible _, `Infeasible _ | `Failed, `Failed -> ()
      | _ -> Alcotest.fail "telemetry changed a solver verdict")
    quiet noisy

let suite =
  [
    Alcotest.test_case "span nesting, depth and timing" `Quick test_span_nesting;
    Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "counter/gauge/histogram arithmetic" `Quick test_counters;
    Alcotest.test_case "threads of one domain share a store exactly" `Quick
      test_threads_share_a_store;
    Alcotest.test_case "disabled telemetry is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "json encode/parse round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl sink emits parseable lines" `Quick test_jsonl_sink_roundtrip;
    Alcotest.test_case "chrome sink emits valid trace json" `Quick test_chrome_sink_valid;
    Alcotest.test_case "telemetry never changes results" `Quick test_determinism_guard;
  ]
