module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Gen = E2e_fuzz.Gen
module Oracle = E2e_fuzz.Oracle
module Shrink = E2e_fuzz.Shrink
module Fuzz = E2e_fuzz.Fuzz
open Helpers

(* {1 Differential campaigns} *)

(* Every class must survive a sequential mini-campaign with zero
   disagreements (the full-size runs live in `make fuzz-smoke`). *)
let test_class cls () =
  let rep = Fuzz.run_class ~jobs:1 ~seed:11 ~trials:80 cls in
  Alcotest.(check int) "all trials accounted for" rep.Fuzz.trials
    (rep.Fuzz.agreed + rep.Fuzz.skipped + List.length rep.Fuzz.findings);
  Alcotest.(check int) "no disagreements" 0 (List.length rep.Fuzz.findings)

let render rep = Format.asprintf "%a" Fuzz.pp_report rep

let test_parallel_determinism () =
  let a = Fuzz.run_class ~jobs:1 ~seed:3 ~trials:60 Gen.H in
  let b = Fuzz.run_class ~jobs:3 ~seed:3 ~trials:60 Gen.H in
  Alcotest.(check string) "report identical across job counts" (render a) (render b)

(* {1 Generator guards} *)

let test_gen_guards () =
  List.iter
    (fun cls ->
      for trial = 0 to 40 do
        let g = E2e_prng.Prng.of_path [| 99; Gen.code cls; trial |] in
        let shop = Gen.instance g cls in
        let n = Recurrence_shop.n_tasks shop in
        let k = Visit.length shop.Recurrence_shop.visit in
        (match cls with
        | Gen.R ->
            Alcotest.(check bool) "R: tasks within oracle guard" true (n >= 1 && n <= 4);
            Alcotest.(check bool) "R: stages within oracle guard" true (k <= 7);
            Alcotest.(check bool) "R: identical unit" true
              (Recurrence_shop.identical_unit shop <> None);
            Alcotest.(check bool) "R: common release" true
              (Recurrence_shop.identical_releases shop <> None);
            Alcotest.(check bool) "R: single loop" true
              (Visit.single_loop shop.Recurrence_shop.visit <> None)
        | Gen.Eedf | Gen.A | Gen.H ->
            Alcotest.(check bool) "traditional" true
              (Visit.is_traditional shop.Recurrence_shop.visit);
            Alcotest.(check bool) "tasks within branch-bound guard" true (n >= 1 && n <= 8);
            Alcotest.(check bool) "processors within branch-bound guard" true (k <= 6)
        | Gen.Eedf_fast ->
            (* Engine differential: no oracle guard, but the instances
               must be identical-length and traditional. *)
            Alcotest.(check bool) "eedf-fast: traditional" true
              (Visit.is_traditional shop.Recurrence_shop.visit);
            Alcotest.(check bool) "eedf-fast: tasks within generator bound" true
              (n >= 1 && n <= 41);
            Alcotest.(check bool) "eedf-fast: identical length" true
              (Flow_shop.is_identical_length
                 (Flow_shop.make ~processors:k shop.Recurrence_shop.tasks)
              <> None));
        ()
      done)
    Gen.all

(* {1 Oracle classification} *)

let arbitrary_shop () =
  Recurrence_shop.of_traditional
    (Flow_shop.of_params [| (r 0, r 10, [| r 2; r 1 |]); (r 0, r 12, [| r 1; r 3 |]) |])

(* Handing a non-identical-length instance to the EEDF differential must
   be flagged as a precondition violation, not swallowed. *)
let test_oracle_flags_precondition () =
  match Oracle.run Gen.Eedf (arbitrary_shop ()) with
  | Oracle.Bug { kind = Oracle.Precondition; _ } -> ()
  | o -> Alcotest.failf "expected a precondition bug, got %a" Oracle.pp_outcome o

let test_oracle_agrees_on_sane_instances () =
  List.iter
    (fun (cls, shop) ->
      match Oracle.run cls shop with
      | Oracle.Agree -> ()
      | o -> Alcotest.failf "%s: expected agree, got %a" (Gen.name cls) Oracle.pp_outcome o)
    [
      ( Gen.Eedf,
        Recurrence_shop.of_traditional
          (Flow_shop.of_params [| (r 0, r 8, [| r 1; r 1 |]); (r 0, r 3, [| r 1; r 1 |]) |]) );
      (Gen.H, arbitrary_shop ());
    ]

(* {1 Shrinking} *)

let test_shrink_candidates_strictly_smaller () =
  let shop = arbitrary_shop () in
  let m = Shrink.measure shop in
  let cands = Shrink.candidates shop in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  List.iter
    (fun c -> Alcotest.(check bool) "strictly smaller" true (Shrink.measure c < m))
    cands

(* Minimizing against the live oracle: the non-identical-length instance
   keeps its precondition bug all the way down to a minimal shop, and the
   result is a deterministic function of the input. *)
let test_shrink_end_to_end () =
  let keeps_failing s = Oracle.is_bug (Oracle.run Gen.Eedf s) in
  let shrunk, steps = Shrink.minimize ~keeps_failing (arbitrary_shop ()) in
  Alcotest.(check bool) "still failing" true (keeps_failing shrunk);
  Alcotest.(check bool) "shrank" true (steps > 0);
  Alcotest.(check bool) "measure reduced" true
    (Shrink.measure shrunk < Shrink.measure (arbitrary_shop ()));
  let shrunk', steps' = Shrink.minimize ~keeps_failing (arbitrary_shop ()) in
  Alcotest.(check string) "deterministic result" (Instance_io.to_string shrunk)
    (Instance_io.to_string shrunk');
  Alcotest.(check int) "deterministic step count" steps steps';
  (* No candidate of the result may still fail: the reproducer is minimal. *)
  Alcotest.(check bool) "1-minimal" true
    (not (List.exists keeps_failing (Shrink.candidates shrunk)))

let test_shrink_rounds_rationals () =
  let shop =
    Recurrence_shop.of_traditional
      (Flow_shop.of_params [| (Rat.make 7 3, Rat.make 29 3, [| Rat.make 5 4 |]) |])
  in
  (* Any single-task shop "fails": shrinking must then drive every
     parameter to its simplest form without ever dropping below 1 task. *)
  let keeps_failing s = Recurrence_shop.n_tasks s >= 1 in
  let shrunk, _ = Shrink.minimize ~keeps_failing shop in
  let t = shrunk.Recurrence_shop.tasks.(0) in
  Alcotest.(check int) "release minimized" 1 (Rat.den t.Task.release);
  Alcotest.(check bool) "release is zero" true (Rat.is_zero t.Task.release);
  Alcotest.(check int) "deadline on integers" 1 (Rat.den t.Task.deadline);
  Alcotest.(check int) "tau on integers" 1 (Rat.den t.Task.proc_times.(0))

let test_shrink_drops_tasks () =
  let shop =
    Recurrence_shop.of_traditional
      (Flow_shop.of_params
         (Array.init 5 (fun i -> (r 0, r (10 + i), [| Rat.one; Rat.one |]))))
  in
  let keeps_failing s = Recurrence_shop.n_tasks s >= 2 in
  let shrunk, steps = Shrink.minimize ~keeps_failing shop in
  Alcotest.(check int) "exactly the predicate's minimum" 2 (Recurrence_shop.n_tasks shrunk);
  Alcotest.(check bool) "counted steps" true (steps >= 3)

(* {1 Corpus} *)

(* Tests run inside dune's sandbox (cwd = _build/default/test), so a
   relative scratch directory never escapes the build tree. *)
let with_temp_dir f =
  let dir = "_fuzz_scratch" in
  if Sys.file_exists dir then
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_corpus_roundtrip () =
  with_temp_dir @@ fun dir ->
  let shop = arbitrary_shop () in
  let path = Fuzz.write_corpus ~dir ~cls:Gen.H ~provenance:"seed=1 trial=2" shop in
  (match Fuzz.replay_file path with
  | Ok (Gen.H, o) ->
      Alcotest.(check bool) "replays clean" false (Oracle.is_bug o)
  | Ok (c, _) -> Alcotest.failf "wrong class recovered: %s" (Gen.name c)
  | Error m -> Alcotest.fail m);
  (* Content-addressed: same instance, with or without provenance, is one
     file. *)
  let path' = Fuzz.write_corpus ~dir ~cls:Gen.H shop in
  Alcotest.(check string) "stable name" path path';
  Alcotest.(check int) "one instance file" 1
    (Array.length (Array.of_list (List.filter (fun n -> Filename.check_suffix n ".txt")
                                    (Array.to_list (Sys.readdir dir)))))

let test_corpus_rejects_missing_class () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "stray.txt" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "task 0 5 1 1\n");
  match Fuzz.replay_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "headerless corpus file must be rejected"

(* The checked-in regression corpus: every entry must parse and replay
   with no disagreement, forever. *)
let test_corpus_replay () =
  let entries = Fuzz.replay_dir "corpus" in
  Alcotest.(check bool) "corpus present" true (entries <> []);
  List.iter
    (fun (name, result) ->
      match result with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok (_, o) ->
          if Oracle.is_bug o then Alcotest.failf "%s: %a" name Oracle.pp_outcome o)
    entries

let suite =
  List.map
    (fun cls ->
      Alcotest.test_case
        (Printf.sprintf "differential campaign (%s)" (Gen.name cls))
        `Quick (test_class cls))
    Gen.all
  @ [
      Alcotest.test_case "parallel determinism" `Quick test_parallel_determinism;
      Alcotest.test_case "generator guards" `Quick test_gen_guards;
      Alcotest.test_case "oracle flags precondition" `Quick test_oracle_flags_precondition;
      Alcotest.test_case "oracle agrees on sane instances" `Quick
        test_oracle_agrees_on_sane_instances;
      Alcotest.test_case "shrink candidates strictly smaller" `Quick
        test_shrink_candidates_strictly_smaller;
      Alcotest.test_case "shrink end to end" `Quick test_shrink_end_to_end;
      Alcotest.test_case "shrink rounds rationals" `Quick test_shrink_rounds_rationals;
      Alcotest.test_case "shrink drops tasks" `Quick test_shrink_drops_tasks;
      Alcotest.test_case "corpus round trip" `Quick test_corpus_roundtrip;
      Alcotest.test_case "corpus rejects missing class" `Quick test_corpus_rejects_missing_class;
      Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    ]
