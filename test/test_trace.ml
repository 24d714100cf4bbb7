(* Request tracing through the serve pipeline: deterministic JSONL
   traces across domain counts, schema validation, reply transparency
   (tracing must not perturb the reply stream), and the metrics
   protocol command. *)

module Obs = E2e_obs.Obs
module Json = E2e_obs.Json
module Quantile = E2e_obs.Quantile
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Protocol = E2e_serve.Protocol
module Rtrace = E2e_serve.Rtrace
module Schema = Rtrace.Schema

(* Leave the global telemetry/tracing/clock state as we found it. *)
let with_clean_telemetry f =
  Fun.protect
    ~finally:(fun () ->
      Rtrace.set_writer None;
      Obs.set_stats false;
      Obs.reset_metrics ();
      Obs.Clock.use_wall_clock ())
    f

(* The --det-clock source: each read advances a dyadic counter, so every
   timestamp and duration is an exact float. *)
let install_det_clock () =
  let k = ref 0 in
  Obs.Clock.set_source (fun () ->
      incr k;
      float_of_int !k *. (1. /. 1024.))

let log = Test_serve.gen_log 11 60

(* Replay [log] with a buffer trace writer at the given domain count;
   returns (trace bytes, rendered replies). *)
let traced_run ~jobs =
  let buf = Buffer.create 4096 in
  install_det_clock ();
  Rtrace.set_writer (Some (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n'));
  let config = { Batcher.default_config with Batcher.jobs; Batcher.cache_capacity = 64 } in
  let outcomes = Batcher.process_log (Batcher.create ~config ()) log in
  Rtrace.set_writer None;
  (Buffer.contents buf, Test_serve.render_outcomes outcomes)

let parse_trace bytes =
  String.split_on_char '\n' bytes
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Error msg -> Alcotest.failf "invalid trace JSON: %s" msg
         | Ok j -> (
             match Schema.of_json j with
             | Error msg -> Alcotest.failf "invalid trace record: %s" msg
             | Ok None -> Alcotest.failf "non-trace line in trace stream: %s" l
             | Ok (Some r) -> r))

let test_trace_deterministic () =
  with_clean_telemetry @@ fun () ->
  let t1, r1 = traced_run ~jobs:1 in
  let t4, r4 = traced_run ~jobs:4 in
  Alcotest.(check string) "replies identical across -j" r1 r4;
  Alcotest.(check string) "trace bytes identical across -j" t1 t4;
  Alcotest.(check bool) "trace non-empty" true (String.length t1 > 0)

let test_trace_schema () =
  with_clean_telemetry @@ fun () ->
  let bytes, _ = traced_run ~jobs:2 in
  let records = parse_trace bytes in
  Alcotest.(check int)
    "one record per stage plus one done record per request"
    (List.length log * (Rtrace.n_stages + 1))
    (List.length records);
  let v = Schema.validator () in
  List.iter
    (fun r ->
      match Schema.feed v r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "validator rejected record: %s" msg)
    records;
  (match Schema.check_closed v with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unclosed trace: %s" msg);
  Alcotest.(check int) "every request completed" (List.length log) (Schema.completed v);
  (* Stage durations tile the end-to-end latency exactly per request
     (the validator enforces a tolerance; under the det clock the sums
     are exact). *)
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (r : Schema.record) ->
      if r.seq < Rtrace.n_stages then
        Hashtbl.replace sums r.id
          (r.dur +. Option.value ~default:0. (Hashtbl.find_opt sums r.id))
      else
        Alcotest.(check (float 0.))
          (Printf.sprintf "request %d: stage sum tiles e2e" r.id)
          r.dur (Hashtbl.find sums r.id))
    records

let test_validator_rejects () =
  let r id seq stage dur =
    { Schema.id; op = "submit"; shop = "s"; stage; seq; t = 1.; dur; verdict = None }
  in
  let feed1 record =
    let v = Schema.validator () in
    Schema.feed v record
  in
  (match feed1 (r 1 0 "queue" (-0.5)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative duration accepted");
  (match feed1 (r 1 1 "canonicalize" 0.1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-order stage accepted");
  (match feed1 (r 1 0 "solve" 0.1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stage/seq mismatch accepted");
  let v = Schema.validator () in
  (match Schema.feed v (r 1 0 "queue" 0.1) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid first stage rejected: %s" msg);
  match Schema.check_closed v with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unclosed request accepted"

(* The concurrent TCP transport emits the same per-request trace
   schema as the in-process path: every request from every connection
   yields a full, well-ordered stage tiling and a closed trace, even
   with two clients interleaving submissions. *)
let test_trace_schema_concurrent () =
  with_clean_telemetry @@ fun () ->
  let buf = Buffer.create 4096 in
  install_det_clock ();
  Rtrace.set_writer
    (Some (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n'));
  let requests = 12 and n_clients = 2 in
  let logs =
    List.init n_clients (fun c ->
        List.map
          (Test_serve.prefix_shop (Printf.sprintf "t%d." c))
          (Test_serve.gen_log (700 + c) requests))
  in
  let results =
    Test_serve.with_server ~jobs:2 ~accept_pool:n_clients ~max_connections:n_clients
      (fun port ->
        logs
        |> List.map (fun l ->
               let lines = List.map Protocol.render_request l in
               Domain.spawn (fun () -> Test_serve.tcp_session port lines))
        |> List.map Domain.join)
  in
  Rtrace.set_writer None;
  List.iter
    (fun (_, replies) ->
      Alcotest.(check int) "every request answered" (requests + 1) (List.length replies))
    results;
  let records = parse_trace (Buffer.contents buf) in
  let total = n_clients * requests in
  Alcotest.(check int)
    "one record per stage plus one done record per request"
    (total * (Rtrace.n_stages + 1))
    (List.length records);
  let v = Schema.validator () in
  List.iter
    (fun r ->
      match Schema.feed v r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "validator rejected record: %s" msg)
    records;
  (match Schema.check_closed v with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unclosed trace: %s" msg);
  Alcotest.(check int) "every request completed" total (Schema.completed v)

(* Tracing must be invisible in the replies: same log, writer on vs
   off, byte-identical rendered outcomes. *)
let test_replies_unchanged_by_tracing () =
  with_clean_telemetry @@ fun () ->
  let plain =
    let config = { Batcher.default_config with Batcher.cache_capacity = 64 } in
    Test_serve.render_outcomes
      (Batcher.process_log (Batcher.create ~config ()) log)
  in
  let _, traced = traced_run ~jobs:1 in
  Alcotest.(check string) "replies identical with tracing on" plain traced

let test_metrics_command () =
  with_clean_telemetry @@ fun () ->
  Obs.set_stats true;
  Obs.reset_metrics ();
  (match Protocol.parse_request "metrics" with
  | Ok Protocol.Metrics -> ()
  | _ -> Alcotest.fail "bare metrics line must parse");
  (match Protocol.parse_request "metrics now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "metrics takes no arguments");
  let config = { Batcher.default_config with Batcher.cache_capacity = 64 } in
  let stripes = E2e_serve.Stripes.create ~config () in
  ignore (Batcher.process_log (E2e_serve.Stripes.batcher stripes 0) log);
  let reply = Protocol.render_metrics stripes in
  Alcotest.(check bool) "reply framed as metrics" true
    (String.starts_with ~prefix:"metrics " reply);
  let lines =
    String.split_on_char ';'
      (String.sub reply 8 (String.length reply - 8))
  in
  Alcotest.(check bool) "single line reply" true
    (List.for_all (fun l -> not (String.contains l '\n')) lines);
  let has prefix = List.exists (String.starts_with ~prefix) lines in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " line present") true (has prefix))
    [
      "serve_queue_depth ";
      "serve_submitted_total ";
      "serve_batches_completed_total ";
      "serve_shop_verdicts_total{shop=";
      "serve_cache_hits_total ";
      "serve_stage_solve{quantile=\"0.5\"}";
      "serve_stage_queue{quantile=\"0.99\"}";
      "serve_e2e_count ";
      "serve_admitted_total ";
    ];
  (* Every line is NAME VALUE with a parseable number. *)
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> Alcotest.failf "unparseable metrics line: %s" line
      | Some i -> (
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          match float_of_string_opt v with
          | Some _ -> ()
          | None -> Alcotest.failf "non-numeric value in line: %s" line))
    lines

let test_service_stats () =
  with_clean_telemetry @@ fun () ->
  let config = { Batcher.default_config with Batcher.cache_capacity = 64 } in
  let batcher = Batcher.create ~config () in
  ignore (Batcher.process_log batcher log);
  let stats = Batcher.service_stats batcher in
  Alcotest.(check int) "every request submitted" (List.length log)
    stats.Batcher.submitted;
  Alcotest.(check int) "ids issued per submission" (List.length log)
    (Batcher.last_id batcher);
  Alcotest.(check bool) "batches ran" true (stats.Batcher.batches > 0);
  let verdict_total =
    List.fold_left
      (fun acc (_, (a, r, u)) -> acc + a + r + u)
      0 stats.Batcher.verdicts
  in
  Alcotest.(check bool) "shop verdicts recorded" true (verdict_total > 0)

let suite =
  [
    Alcotest.test_case "trace deterministic across -j" `Quick test_trace_deterministic;
    Alcotest.test_case "trace schema valid and tiling" `Quick test_trace_schema;
    Alcotest.test_case "validator rejects malformed traces" `Quick test_validator_rejects;
    Alcotest.test_case "trace schema valid over the concurrent transport" `Slow
      test_trace_schema_concurrent;
    Alcotest.test_case "replies unchanged by tracing" `Quick
      test_replies_unchanged_by_tracing;
    Alcotest.test_case "metrics protocol command" `Quick test_metrics_command;
    Alcotest.test_case "service stats" `Quick test_service_stats;
  ]
