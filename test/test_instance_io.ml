module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
open Helpers

let parse_ok text =
  match Instance_io.parse text with
  | Ok shop -> shop
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let parse_err text =
  match Instance_io.parse text with
  | Ok _ -> Alcotest.fail "parse should fail"
  | Error msg -> msg

let test_basic () =
  let shop = parse_ok "task 0 10 1 2 3\ntask 1 12 2 2 2\n" in
  Alcotest.(check int) "tasks" 2 (Recurrence_shop.n_tasks shop);
  Alcotest.(check bool) "traditional" true (Visit.is_traditional shop.Recurrence_shop.visit);
  check_rat "release" (r 1) shop.Recurrence_shop.tasks.(1).Task.release;
  check_rat "tau" (r 3) shop.Recurrence_shop.tasks.(0).Task.proc_times.(2)

let test_visit_directive () =
  let shop = parse_ok "visit 1 2 1\ntask 0 10 1 1 1\n" in
  Alcotest.(check int) "two processors" 2 shop.Recurrence_shop.visit.Visit.processors;
  Alcotest.(check int) "three stages" 3 (Visit.length shop.Recurrence_shop.visit)

let test_comments_and_whitespace () =
  let shop = parse_ok "# header\n\n  task 0 10 1 1  # trailing\n\ttask 0 12 1 1\n" in
  Alcotest.(check int) "tasks" 2 (Recurrence_shop.n_tasks shop)

let test_rational_literals () =
  let shop = parse_ok "task 0.5 10 3/2 2.25\n" in
  check_rat "decimal release" (Rat.make 1 2) shop.Recurrence_shop.tasks.(0).Task.release;
  check_rat "fraction tau" (Rat.make 3 2) shop.Recurrence_shop.tasks.(0).Task.proc_times.(0);
  check_rat "decimal tau" (Rat.make 9 4) shop.Recurrence_shop.tasks.(0).Task.proc_times.(1)

let test_errors () =
  let contains_line msg = Helpers.contains msg "line" in
  Alcotest.(check bool) "empty input" true (parse_err "" = "no task lines");
  Alcotest.(check bool) "bad directive has line" true (contains_line (parse_err "frobnicate\n"));
  Alcotest.(check bool) "bad number has line" true (contains_line (parse_err "task 0 x 1\n"));
  Alcotest.(check bool) "stage mismatch flagged" true
    (contains_line (parse_err "task 0 10 1 1\ntask 0 10 1\n"));
  Alcotest.(check bool) "visit length mismatch" true
    (Helpers.contains (parse_err "visit 1 2\ntask 0 10 1 1 1\n") "visit length");
  Alcotest.(check bool) "duplicate visit" true
    (contains_line (parse_err "visit 1 2\nvisit 1 2\ntask 0 9 1 1\n"))

let test_roundtrip_traditional () =
  let original = parse_ok "task 0 10 1 2 3\ntask 1/2 12 2 2 2\n" in
  let reparsed = parse_ok (Instance_io.to_string original) in
  Alcotest.(check bool) "round trip" true
    (Array.for_all2
       (fun (a : Task.t) (b : Task.t) ->
         Rat.equal a.release b.release && Rat.equal a.deadline b.deadline
         && Array.for_all2 Rat.equal a.proc_times b.proc_times)
       original.Recurrence_shop.tasks reparsed.Recurrence_shop.tasks)

let test_roundtrip_recurrent () =
  let original = parse_ok "visit 1 2 3 2 4\ntask 0 8 1 1 1 1 1\n" in
  let reparsed = parse_ok (Instance_io.to_string original) in
  Alcotest.(check bool) "visit preserved" true
    (original.Recurrence_shop.visit.Visit.sequence
    = reparsed.Recurrence_shop.visit.Visit.sequence)

(* Property: any instance the fuzzer can generate survives
   to_string/parse unchanged — both structurally and byte-for-byte on a
   second render. *)
let shop_equal (a : Recurrence_shop.t) (b : Recurrence_shop.t) =
  a.Recurrence_shop.visit.E2e_model.Visit.sequence
  = b.Recurrence_shop.visit.E2e_model.Visit.sequence
  && Array.length a.Recurrence_shop.tasks = Array.length b.Recurrence_shop.tasks
  && Array.for_all2
       (fun (x : Task.t) (y : Task.t) ->
         Rat.equal x.release y.release && Rat.equal x.deadline y.deadline
         && Array.for_all2 Rat.equal x.proc_times y.proc_times)
       a.Recurrence_shop.tasks b.Recurrence_shop.tasks

let test_roundtrip_fuzzed () =
  List.iter
    (fun cls ->
      for trial = 0 to 60 do
        let g = E2e_prng.Prng.of_path [| 7; E2e_fuzz.Gen.code cls; trial |] in
        let shop = E2e_fuzz.Gen.instance g cls in
        let text = Instance_io.to_string shop in
        let reparsed = parse_ok text in
        if not (shop_equal shop reparsed) then
          Alcotest.failf "%s trial %d: fields changed across round trip:\n%s"
            (E2e_fuzz.Gen.name cls) trial text;
        Alcotest.(check string)
          (Printf.sprintf "%s trial %d: render is a fixed point" (E2e_fuzz.Gen.name cls) trial)
          text
          (Instance_io.to_string reparsed)
      done)
    E2e_fuzz.Gen.all

let test_malformed_rationals () =
  List.iter
    (fun text ->
      match Instance_io.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "must reject %S" text)
    [
      "task 0 10 1/0\n" (* zero denominator *);
      "task 0 10 1//2\n" (* doubled slash *);
      "task 0 10 1/\n" (* missing denominator *);
      "task 0 10 /2\n" (* missing numerator *);
      "task 0 10 1.2.3\n" (* doubled point *);
      "task 0 10 --1\n" (* doubled sign *);
      "task 0 10 -1\n" (* negative processing time *);
      "task 0 10 1 -2\n" (* negative later stage *);
      "task 0 2.00000000000000000001 1 1\n" (* 10^20 scale *);
      "task 0 4611686018427387903.5 1 1\n" (* value past 2^62 *);
    ]

let test_malformed_structure () =
  List.iter
    (fun text ->
      match Instance_io.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "must reject %S" text)
    [
      "task 0 10\n" (* no stages at all *);
      "task 0\n" (* not even a deadline *);
      "visit 1 3\ntask 0 10 1 1\n" (* processor numbering with a gap *);
      "visit 0 1\ntask 0 10 1 1\n" (* processors are 1-based *);
      "visit 1 2\n" (* visit but no tasks *);
    ]

let test_deadline_before_release_rejected () =
  Alcotest.(check bool) "window validation propagates" true
    (match Instance_io.parse "task 5 3 1\n" with Error _ -> true | Ok _ -> false)

let test_parse_file () =
  let path = Filename.temp_file "e2e" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "visit 1 2 1\ntask 0 9 1 1 1\n");
  (match Instance_io.parse_file path with
  | Ok shop -> Alcotest.(check int) "stages" 3 (Visit.length shop.Recurrence_shop.visit)
  | Error m -> Alcotest.failf "parse_file failed: %s" m);
  Sys.remove path;
  match Instance_io.parse_file "/nonexistent/e2e-tasks.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

let suite =
  [
    Alcotest.test_case "parse_file" `Quick test_parse_file;
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "visit directive" `Quick test_visit_directive;
    Alcotest.test_case "comments and whitespace" `Quick test_comments_and_whitespace;
    Alcotest.test_case "rational literals" `Quick test_rational_literals;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "round trip (traditional)" `Quick test_roundtrip_traditional;
    Alcotest.test_case "round trip (recurrent)" `Quick test_roundtrip_recurrent;
    Alcotest.test_case "round trip (fuzzed, all classes)" `Quick test_roundtrip_fuzzed;
    Alcotest.test_case "malformed rationals rejected" `Quick test_malformed_rationals;
    Alcotest.test_case "malformed structure rejected" `Quick test_malformed_structure;
    Alcotest.test_case "bad window rejected" `Quick test_deadline_before_release_rejected;
  ]
