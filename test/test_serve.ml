(* The admission service: canonical cache behaviour, batched
   determinism across domain counts, cache transparency, soundness of
   admitted schedules and rejection certificates, backpressure, the
   wire protocol, and the dispatcher replaying admitted schedules. *)

module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Infeasibility = E2e_core.Infeasibility
module Feasible_gen = E2e_workload.Feasible_gen
module Dispatcher = E2e_sim.Dispatcher
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol
module Server = E2e_serve.Server
module Wire = E2e_serve.Wire
module Stripes = E2e_serve.Stripes
module Serve_fuzz = E2e_fuzz.Serve_fuzz

(* ------------------------------------------------------------------ *)
(* Workload helpers                                                   *)

let gen_instance g =
  let n = 2 + Prng.int g 3 and m = 2 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

let permute g (shop : Recurrence_shop.t) =
  let order = Prng.permutation g (Recurrence_shop.n_tasks shop) in
  let tasks =
    Array.mapi
      (fun p orig ->
        let t = shop.Recurrence_shop.tasks.(orig) in
        Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
      order
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* Window strictly below total processing time: provably infeasible. *)
let infeasible_instance () =
  let tasks =
    [|
      Task.make ~id:0 ~release:Rat.zero ~deadline:Rat.one
        ~proc_times:[| Rat.one; Rat.one |];
    |]
  in
  Recurrence_shop.of_traditional (Flow_shop.make ~processors:2 tasks)

(* A mixed request log: submits, permuted resubmissions, adds, queries,
   drops — a pure function of the seed. *)
let gen_log seed requests =
  let g = Prng.of_path [| seed; 97; 0 |] in
  let live = ref [] and fresh = ref 0 in
  let fresh_shop () = incr fresh; Printf.sprintf "s%d" !fresh in
  let pick () =
    match !live with [] -> None | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.40 || !live = [] then begin
        let shop = fresh_shop () and instance = gen_instance g in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.60 then begin
        let _, earlier = Option.get (pick ()) in
        let shop = fresh_shop () and instance = permute g earlier in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.80 then begin
        let shop, committed = Option.get (pick ()) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let taus = Array.make k Rat.one in
        let release = Prng.rat_uniform g ~den:10 Rat.zero (Rat.of_int 3) in
        Admission.Add
          { shop; tasks = [ (release, Rat.add release (Rat.of_int (3 * k)), taus) ] }
      end
      else if p < 0.92 then
        Admission.Query { shop = (match pick () with Some (s, _) -> s | None -> "none") }
      else begin
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        live := List.filter (fun (s, _) -> s <> shop) !live;
        Admission.Drop { shop }
      end)

let render_outcomes outcomes =
  String.concat "\n"
    (Array.to_list
       (Array.map (fun o -> Format.asprintf "%a" Batcher.pp_outcome o) outcomes))

let run_log ~jobs ~cache_capacity log =
  let config =
    { Batcher.queue_capacity = max 1 (List.length log); batch = 4;
      budget = Admission.Unbounded; jobs; cache_capacity }
  in
  let b = Batcher.create ~config () in
  (Batcher.process_log b log, b)

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Cache.find c "a");
  (* "a" is now most recent, so adding "c" evicts "b". *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size

let test_cache_disabled_and_invalid () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "capacity 0 never stores" None (Cache.find c "a");
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Cache.create: capacity must be >= 0") (fun () ->
      ignore (Cache.create ~capacity:(-1)))

let test_canonical_key_permutation_invariant () =
  let g = Prng.of_path [| 5; 98; 0 |] in
  for _ = 1 to 20 do
    let shop = gen_instance g in
    let shuffled = permute g shop in
    Alcotest.(check string)
      "permutation has the same canonical key" (Cache.key shop) (Cache.key shuffled);
    (* A schedule computed on the canonical form, restored to the
       original labelling, must still satisfy every constraint. *)
    let canon = Cache.canonicalize shuffled in
    let sched = E2e_core.Greedy_edf.schedule canon.Cache.shop in
    let restored =
      Schedule.make shuffled (Cache.restore_starts canon sched.Schedule.starts)
    in
    match Schedule.check restored with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "restored schedule violates constraints"
  done

(* The incremental Add path must be indistinguishable from a from-scratch
   canonicalization of the merged candidate: same key, same permutation,
   same canonical tasks — byte for byte. *)
let test_merge_matches_canonicalize () =
  let g = Prng.of_path [| 5; 99; 0 |] in
  for _ = 1 to 30 do
    let shop = gen_instance g in
    let n = Recurrence_shop.n_tasks shop in
    let h = 1 + Prng.int g (n - 1) in
    let committed =
      Recurrence_shop.make ~visit:shop.Recurrence_shop.visit
        (Array.sub shop.Recurrence_shop.tasks 0 h)
    in
    let fresh = Array.sub shop.Recurrence_shop.tasks h (n - h) in
    let merged = Cache.merge ~base:(Cache.canonicalize committed) fresh in
    let full = Cache.canonicalize shop in
    let lines (c : Cache.canonical) =
      Array.map E2e_model.Instance_io.task_line c.shop.Recurrence_shop.tasks
    in
    Alcotest.(check string) "merge key = full key" (Lazy.force full.Cache.key)
      (Lazy.force merged.Cache.key);
    Alcotest.(check (array int)) "merge perm = full perm" full.Cache.perm merged.Cache.perm;
    Alcotest.(check (array string)) "merge lines = full lines" (lines full) (lines merged)
  done

let test_keyer_reuses () =
  let g = Prng.of_path [| 5; 97; 0 |] in
  let k = Cache.Keyer.create () in
  for _ = 1 to 10 do
    let shop = gen_instance g in
    let c1 = Cache.Keyer.canonicalize k shop in
    Alcotest.(check string) "keyer agrees with canonicalize" (Cache.key shop)
      (Lazy.force c1.Cache.key);
    (* A permutation sorts to the same canonical instance, so the second
       canonicalization must share the first one's key — digested at
       most once — (and carry a perm valid for the permuted shop). *)
    let shuffled = permute g shop in
    let c2 = Cache.Keyer.canonicalize k shuffled in
    Alcotest.(check bool) "permutation shares the key" true (c1.Cache.key == c2.Cache.key);
    (* The reused canonical carries the shuffled shop's own perm: the
       task at canonical position [p] must be (a content-equal twin of)
       [shuffled.tasks.(perm.(p))]. *)
    Array.iteri
      (fun p orig ->
        Alcotest.(check string) "perm points at a content-equal task"
          (E2e_model.Instance_io.task_line c2.Cache.shop.Recurrence_shop.tasks.(p))
          (E2e_model.Instance_io.task_line shuffled.Recurrence_shop.tasks.(orig)))
      c2.Cache.perm
  done;
  let s = Cache.Keyer.stats k in
  Alcotest.(check bool) "every permutation was a reuse" true (s.Cache.Keyer.reused >= 10);
  Alcotest.(check bool) "distinct instances rendered once each" true
    (s.Cache.Keyer.rendered >= 1 && s.Cache.Keyer.rendered <= 10)

(* ------------------------------------------------------------------ *)
(* Determinism and cache transparency                                 *)

let test_deterministic_across_jobs () =
  List.iter
    (fun seed ->
      let log = gen_log seed 40 in
      let o1, _ = run_log ~jobs:1 ~cache_capacity:64 log in
      let o4, _ = run_log ~jobs:4 ~cache_capacity:64 log in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: -j1 and -j4 reply logs identical" seed)
        (render_outcomes o1) (render_outcomes o4))
    [ 1; 2; 3 ]

let test_cache_transparent () =
  List.iter
    (fun seed ->
      let log = gen_log seed 40 in
      let on, b = run_log ~jobs:2 ~cache_capacity:64 log in
      let off, _ = run_log ~jobs:2 ~cache_capacity:0 log in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: cached and uncached replies identical" seed)
        (render_outcomes off) (render_outcomes on);
      (* The comparison only means something if the cache actually got
         exercised. *)
      let s = Option.get (Batcher.cache_stats b) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cache saw lookups" seed)
        true
        (s.Cache.hits + s.Cache.misses > 0))
    [ 1; 2; 3 ]

(* The fuzzer's own differential harness, as a regression test: batched
   cached engine vs sequential cache-free reference. *)
let test_fuzz_serve_class () =
  let r = Serve_fuzz.run ~jobs:2 ~seed:11 ~trials:25 () in
  Alcotest.(check int) "trials" 25 r.Serve_fuzz.trials;
  Alcotest.(check int) "all agreed" 25 r.Serve_fuzz.agreed

(* ------------------------------------------------------------------ *)
(* Soundness                                                          *)

let admitted_schedules outcomes =
  Array.to_list outcomes
  |> List.filter_map (function
       | Batcher.Reply
           (Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ }) ->
           Some schedule
       | _ -> None)

let test_admitted_schedules_check () =
  let log = gen_log 7 60 in
  let outcomes, _ = run_log ~jobs:4 ~cache_capacity:32 log in
  let schedules = admitted_schedules outcomes in
  Alcotest.(check bool) "log admits something" true (List.length schedules > 0);
  List.iter
    (fun s ->
      match Schedule.check s with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "admitted schedule fails the checker")
    schedules

let test_rejection_certificate () =
  let instance = infeasible_instance () in
  let _, reply =
    Admission.apply Admission.empty (Admission.Submit { shop = "bad"; instance })
  in
  match reply with
  | Admission.Decided { decision = Admission.Rejected { certificate = Some _ }; _ } ->
      let fs =
        Flow_shop.make ~processors:instance.Recurrence_shop.visit.E2e_model.Visit.processors
          instance.Recurrence_shop.tasks
      in
      Alcotest.(check bool)
        "certificate confirmed by the independent checker" true
        (Infeasibility.is_provably_infeasible fs)
  | _ -> Alcotest.fail "infeasible set not rejected with a certificate"

let test_rejected_never_commits () =
  let state, _ =
    Admission.apply Admission.empty
      (Admission.Submit { shop = "bad"; instance = infeasible_instance () })
  in
  Alcotest.(check int) "nothing committed" 0 (Admission.n_committed state)

(* ------------------------------------------------------------------ *)
(* Backpressure                                                       *)

let test_backpressure () =
  let config =
    { Batcher.queue_capacity = 4; batch = 2; budget = Admission.Unbounded; jobs = 1;
      cache_capacity = 8 }
  in
  let b = Batcher.create ~config () in
  let log = List.init 10 (fun i -> Admission.Query { shop = Printf.sprintf "q%d" i }) in
  let outcomes = Batcher.process_log b log in
  let overloaded =
    Array.to_list outcomes
    |> List.filter (function Batcher.Overloaded -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "exactly the overflow is refused" 6 overloaded;
  Alcotest.(check int) "every request got an answer" 10 (Array.length outcomes);
  Array.iteri
    (fun i o ->
      let expect_overloaded = i >= 4 in
      let is_overloaded = o = Batcher.Overloaded in
      Alcotest.(check bool)
        (Printf.sprintf "request %d backpressure position" i)
        expect_overloaded is_overloaded)
    outcomes;
  Alcotest.(check int) "queue drained" 0 (Batcher.pending b)

let test_batch_splits_same_shop () =
  (* Two requests on one shop are order-dependent: the duplicate submit
     must be answered after (and because of) the first one committing. *)
  let g = Prng.of_path [| 13; 96; 0 |] in
  let instance = gen_instance g in
  let log =
    [
      Admission.Submit { shop = "x"; instance };
      Admission.Submit { shop = "x"; instance = permute g instance };
    ]
  in
  let outcomes, _ = run_log ~jobs:2 ~cache_capacity:8 log in
  (match outcomes.(0) with
  | Batcher.Reply (Admission.Decided { decision = Admission.Admitted _; _ }) -> ()
  | _ -> Alcotest.fail "first submit should be admitted");
  match outcomes.(1) with
  | Batcher.Reply (Admission.Request_error _) -> ()
  | _ -> Alcotest.fail "duplicate submit should be an error"

(* ------------------------------------------------------------------ *)
(* Admitted schedules replayed through the runtime dispatcher         *)

let test_dispatcher_replays_admissions () =
  let log = gen_log 21 40 in
  let outcomes, _ = run_log ~jobs:2 ~cache_capacity:32 log in
  let schedules = admitted_schedules outcomes in
  Alcotest.(check bool) "log admits something" true (List.length schedules > 0);
  List.iter
    (fun s ->
      List.iter
        (fun discipline ->
          let nominal = Dispatcher.scale_durations s ~factor:Rat.one in
          let out = Dispatcher.run discipline s ~actual:nominal in
          Alcotest.(check int)
            "no structural violations under nominal durations" 0
            out.Dispatcher.structural_violations;
          Alcotest.(check int)
            "no deadline misses under nominal durations" 0
            (List.length out.Dispatcher.deadline_misses))
        [ Dispatcher.Time_triggered; Dispatcher.Work_conserving ];
      (* Early completions must stay sustainable. *)
      let early = Dispatcher.scale_durations s ~factor:(Rat.make 1 2) in
      Alcotest.(check bool)
        "time-triggered sustainable under early completion" true
        (Dispatcher.sustainable_time_triggered s ~actual:early))
    schedules

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)

let roundtrip line =
  match Protocol.parse_request line with
  | Ok (Protocol.Request r) -> Protocol.render_request r
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S: not a request" line)
  | Error m -> Alcotest.fail (Printf.sprintf "%S: %s" line m)

let test_protocol_roundtrip () =
  List.iter
    (fun line -> Alcotest.(check string) line line (roundtrip line))
    [
      "submit s1 task 0 10 1 1 ; task 0 8 2 2";
      "submit s2 visit 1 2 1 ; task 0 10 1 1 1 ; task 1/2 21/2 2 2 2";
      "add s1 task 3/4 5 1 2";
      "query s1";
      "drop s1";
    ]

let test_protocol_errors_and_controls () =
  (match Protocol.parse_request "hello e2e-serve/1" with
  | Ok (Protocol.Hello v) -> Alcotest.(check string) "hello version" Protocol.version v
  | _ -> Alcotest.fail "hello not parsed");
  (match Protocol.parse_request "stats" with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats not parsed");
  (match Protocol.parse_request "quit" with
  | Ok Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit not parsed");
  (match Protocol.parse_request "# comment" with
  | Ok Protocol.Blank -> ()
  | _ -> Alcotest.fail "comment not blank");
  (match Protocol.parse_request "" with
  | Ok Protocol.Blank -> ()
  | _ -> Alcotest.fail "empty not blank");
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" line))
    [
      "submit";
      "submit bad/name! task 0 1 1";
      "submit s1 nonsense 1 2";
      "add s1 visit 1 2 ; task 0 1 1 1" (* visit not allowed in add *);
      "frobnicate s1";
      "query";
    ]

let test_protocol_render_reply () =
  let reply =
    Admission.Queried { shop = "s1"; n_tasks = Some 3 }
  in
  Alcotest.(check string)
    "info rendering" "info shop=s1 tasks=3"
    (Protocol.render_reply (Batcher.Reply reply));
  Alcotest.(check string)
    "overloaded rendering" "overloaded"
    (Protocol.render_reply Batcher.Overloaded);
  Alcotest.(check string)
    "hello ok" "ok e2e-serve/1"
    (Protocol.render_hello ~requested:Protocol.version)

(* The reply's schedule field as rendered before the digit writer:
   [Printf] rows with [string_of_int]/["%d/%d"] rationals, newlines
   turned into [;] and the trailing one stripped. *)
let printf_schedule s =
  let rat q =
    if Rat.den q = 1 then string_of_int (Rat.num q)
    else Printf.sprintf "%d/%d" (Rat.num q) (Rat.den q)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "task,stage,processor,start,finish\n";
  let seq = s.Schedule.shop.Recurrence_shop.visit.E2e_model.Visit.sequence in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j _ ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%d,%d,%s,%s\n" i j (seq.(j) + 1)
               (rat (Schedule.start s ~task:i ~stage:j))
               (rat (Schedule.finish s ~task:i ~stage:j))))
        row)
    s.Schedule.starts;
  let csv = Buffer.contents buf in
  String.map (function '\n' -> ';' | c -> c) (String.sub csv 0 (String.length csv - 1))

let prop_render_schedule_matches_printf =
  let outcome f = match f () with text -> Ok text | exception Rat.Overflow -> Error () in
  Helpers.to_alcotest
    (QCheck.Test.make ~name:"render_schedule matches the Printf rendering" ~count:500
       (QCheck.make ~print:Schedule.to_csv (Helpers.schedule_gen ~huge:true ()))
       (fun s ->
         let rendered () =
           let buf = Buffer.create 16 in
           Protocol.render_schedule buf s;
           Buffer.contents buf
         in
         outcome rendered = outcome (fun () -> printf_schedule s)
         && outcome (fun () -> Schedule.to_csv s)
            = outcome (fun () ->
                  String.map (function ';' -> '\n' | c -> c) (printf_schedule s) ^ "\n")))

(* A seeded log in the shape of a large-shop stream: 220-task shops of
   unit times (EEDF) and of times on a 1/100 grid (Algorithm H, so
   multi-digit denominators), adds, a drop and resubmit, a recurrent
   visit, an infeasible submit and the small mixed log. *)
let large_reply_log () =
  let g = Prng.of_path [| 18; 0x5e4; 0 |] in
  let stream_task ~identical i =
    let taus =
      Array.init 4 (fun _ ->
          if identical then Rat.one
          else Prng.rat_uniform g ~den:100 (Rat.make 9 10) (Rat.make 11 10))
    in
    let release =
      Rat.add (Rat.make (5 * i) 4) (Prng.rat_uniform g ~den:100 Rat.zero (Rat.make 1 4))
    in
    let stretch = Prng.rat_uniform g ~den:100 (Rat.of_int 2) (Rat.of_int 3) in
    (release, Rat.add release (Rat.mul (Rat.sum_array taus) stretch), taus)
  in
  let shop ~identical n =
    Recurrence_shop.make ~visit:(E2e_model.Visit.traditional 4)
      (Array.init n (fun i ->
           let release, deadline, proc_times = stream_task ~identical i in
           Task.make ~id:i ~release ~deadline ~proc_times))
  in
  let adds name ~identical from =
    List.init 3 (fun k ->
        Admission.Add { shop = name; tasks = [ stream_task ~identical (from + k) ] })
  in
  let big_eedf = shop ~identical:true 220 and big_h = shop ~identical:false 220 in
  let recurrent =
    Recurrence_shop.make ~visit:(E2e_model.Visit.of_one_based [| 1; 2; 1 |])
      (Array.init 4 (fun i ->
           Task.make ~id:i ~release:(Rat.make i 3) ~deadline:(Rat.of_int (20 + i))
             ~proc_times:[| Rat.make 1 2; Rat.one; Rat.make 1 2 |]))
  in
  [ Admission.Submit { shop = "L0"; instance = big_eedf };
    Admission.Submit { shop = "L1"; instance = big_h } ]
  @ adds "L0" ~identical:true 220 @ adds "L1" ~identical:false 220
  @ [ Admission.Query { shop = "L1" }; Admission.Drop { shop = "L1" };
      Admission.Submit { shop = "L1"; instance = permute g big_h };
      Admission.Submit { shop = "r"; instance = recurrent };
      Admission.Submit { shop = "x"; instance = infeasible_instance () } ]
  @ gen_log 18 40

(* Every byte of every reply (and request line) of the large log,
   pinned: a render path rewrite must not move one. *)
let test_render_pinned_digest () =
  let log = large_reply_log () in
  let outcomes, _ = run_log ~jobs:1 ~cache_capacity:64 log in
  Alcotest.(check string) "request digest" "41a14cb1ed8cd06f2be328cd47b711fc"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map Protocol.render_request log))));
  let text =
    String.concat "\n" (Array.to_list (Array.map (fun o -> Protocol.render_reply o) outcomes))
  in
  Alcotest.(check bool) "log carries 200+-task schedules" true
    (Array.exists
       (function
         | Batcher.Reply (Admission.Decided { n_tasks; decision = Admission.Admitted _; _ }) ->
             n_tasks >= 200
         | _ -> false)
       outcomes);
  Alcotest.(check string) "reply digest" "f3ffd6c3c6176b30537046ac2fd7fae1"
    (Digest.to_hex (Digest.string text))

(* ------------------------------------------------------------------ *)
(* Incremental admission                                              *)

let identical_instance ?(n = 6) seed =
  let g = Prng.of_path [| seed; 55; 0 |] in
  Recurrence_shop.of_traditional
    (Feasible_gen.identical_length g ~n ~m:2 ~tau:Rat.one ~window:(2 * n))

let add_one shop release =
  Admission.Add
    { shop; tasks = [ (release, Rat.add release (Rat.of_int 6), Array.make 2 Rat.one) ] }

let cache_size b =
  match Batcher.cache_stats b with Some st -> st.Cache.size | None -> 0

(* The memory policy: adds stay off the cache — an identical-length one
   is decided by EEDF on the full-solve path — so a growing shop leaves
   one cache entry (its submit) however many adds it takes, and the
   resident accounting keeps in step. *)
let test_incremental_warm_path () =
  let log =
    [
      Admission.Submit { shop = "w"; instance = identical_instance 3 };
      add_one "w" Rat.zero;
      add_one "w" (Rat.of_int 2);
    ]
  in
  let outcomes, b = run_log ~jobs:1 ~cache_capacity:64 log in
  Array.iter
    (fun o ->
      match o with
      | Batcher.Reply
          (Admission.Decided { decision = Admission.Admitted { algo = "eedf"; _ }; _ }) -> ()
      | o -> Alcotest.failf "expected admitted by eedf, got %a" Batcher.pp_outcome o)
    outcomes;
  let svc = Batcher.service_stats b in
  Alcotest.(check int) "only the submit is cached" 1 (cache_size b);
  Alcotest.(check (list (pair string int))) "resident sizes track commits"
    [ ("w", 8) ] svc.Batcher.resident

(* Adds to a shop outside the identical-length class stay off the cache
   too: no lookup (the cache's miss count is the submit's alone) and no
   entry, in the batcher and in the sequential interpreter alike. *)
let test_incremental_fallback_counted () =
  let arbitrary =
    Recurrence_shop.of_traditional
      (Flow_shop.of_params
         [|
           (Rat.zero, Rat.of_int 10, [| Rat.of_int 2; Rat.one |]);
           (Rat.zero, Rat.of_int 12, [| Rat.one; Rat.of_int 3 |]);
         |])
  in
  let log = [ Admission.Submit { shop = "c"; instance = arbitrary }; add_one "c" Rat.zero ] in
  let _, b = run_log ~jobs:1 ~cache_capacity:64 log in
  Alcotest.(check int) "arbitrary add is not cached" 1 (cache_size b);
  let misses = match Batcher.cache_stats b with Some st -> st.Cache.misses | None -> -1 in
  Alcotest.(check int) "only the submit looked the cache up" 1 misses;
  let cache = Cache.create ~capacity:64 in
  let engine, _ = Admission.apply ~cache Admission.empty (List.hd log) in
  let before = Cache.length cache in
  let _, reply = Admission.apply ~cache engine (List.nth log 1) in
  (match reply with
  | Admission.Decided { decision = Admission.Admitted _; _ } -> ()
  | r -> Alcotest.failf "expected the add admitted, got %a" Admission.pp_reply r);
  Alcotest.(check int) "apply leaves the cache alone on an add" before (Cache.length cache);
  Alcotest.(check int) "apply never looked an add up" 1 (Cache.stats cache).Cache.misses

(* Replies to adds must not depend on the worker-domain count. *)
let test_incremental_transparent_across_jobs () =
  let log =
    Admission.Submit { shop = "w"; instance = identical_instance 11 }
    :: List.init 6 (fun i -> add_one "w" (Rat.of_int i))
  in
  let o1, _ = run_log ~jobs:1 ~cache_capacity:64 log in
  let o4, _ = run_log ~jobs:4 ~cache_capacity:64 log in
  Alcotest.(check string) "byte-identical replies" (render_outcomes o1) (render_outcomes o4)

(* Random identical-length shops under random batches of identical-length
   adds.  Windows of m..4m task lengths make some adds (and submits)
   infeasible. *)
let identical_add_log seed =
  let g = Prng.of_path [| seed; 56; 0 |] in
  let shops = 1 + Prng.int g 3 and m = 2 + Prng.int g 2 in
  let tau = Rat.make (1 + Prng.int g 3) (1 + Prng.int g 2) in
  let submits =
    List.init shops (fun i ->
        let fs = Feasible_gen.identical_length g ~n:(2 + Prng.int g 5) ~m ~tau ~window:(8 + Prng.int g 12) in
        Admission.Submit
          { shop = Printf.sprintf "i%d" i; instance = Recurrence_shop.of_traditional fs })
  in
  let adds =
    List.init (3 + Prng.int g 8) (fun _ ->
        let tasks =
          List.init (1 + Prng.int g 3) (fun _ ->
              let release = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int 10) in
              let window = Rat.mul_int tau (m + Prng.int g (3 * m)) in
              (release, Rat.add release window, Array.make m tau))
        in
        Admission.Add { shop = Printf.sprintf "i%d" (Prng.int g shops); tasks })
  in
  submits @ adds

(* Identical-length adds have one decision path: [try_incremental] (the
   benchmark's EEDF guard) agrees with [solve_prepared] on every add,
   and the batcher at -j 1 and -j 4 agrees with [Admission.apply] reply
   for reply, schedules included. *)
let prop_identical_adds_one_path =
  let render reply = Protocol.render_reply (Batcher.Reply reply) in
  let decided decision = render (Admission.Decided { shop = "x"; n_tasks = 0; decision }) in
  Helpers.to_alcotest
    (QCheck.Test.make ~name:"identical-length adds take one decision path" ~count:60
       QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
       (fun seed ->
         let log = identical_add_log seed in
         let _, reference =
           List.fold_left
             (fun (state, acc) req ->
               (match Admission.prepare state req with
               | Ok p when p.Admission.is_add -> (
                   let s, hint = Admission.solve_prepared ~budget:Admission.Unbounded p in
                   match Admission.try_incremental p with
                   | Some (d, h) when decided d = decided s.Admission.decision && h = hint -> ()
                   | Some _ -> QCheck.Test.fail_report "try_incremental and solve_prepared differ"
                   | None -> QCheck.Test.fail_report "identical-length add missed the guard")
               | _ -> ());
               let state, reply = Admission.apply state req in
               (state, render reply :: acc))
             (Admission.empty, []) log
         in
         let reference = List.rev reference in
         let batched jobs =
           Array.to_list (Array.map Protocol.render_reply (fst (run_log ~jobs ~cache_capacity:64 log)))
         in
         batched 1 = reference && batched 4 = reference))

let test_metrics_exposes_incremental () =
  let log =
    [ Admission.Submit { shop = "w"; instance = identical_instance 3 }; add_one "w" Rat.zero ]
  in
  let config = { Batcher.default_config with Batcher.batch = 4; cache_capacity = 0 } in
  let stripes = Stripes.create ~config () in
  ignore (Batcher.process_log (Stripes.batcher stripes 0) log);
  let metrics = Protocol.render_metrics stripes in
  let contains needle =
    let nl = String.length needle and ml = String.length metrics in
    let rec go i = i + nl <= ml && (String.sub metrics i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics expose " ^ needle) true (contains needle))
    [
      "serve_internal_errors_total 0";
      "serve_shop_resident_tasks{shop=\"w\"} 7";
    ]

(* ------------------------------------------------------------------ *)
(* Protocol hardening: whitespace splitting and the add whitelist      *)

(* Regression: [cut_word] split only on the space character, so a
   tab-separated request misparsed its first word and fell through to a
   parse error.  Any ASCII whitespace must now delimit words. *)
let test_protocol_whitespace () =
  (match Protocol.parse_request "query\ts1" with
  | Ok (Protocol.Request (Admission.Query { shop })) ->
      Alcotest.(check string) "tab-separated query" "s1" shop
  | Ok _ -> Alcotest.fail "tab-separated query parsed as something else"
  | Error m -> Alcotest.failf "tab-separated query rejected: %s" m);
  (match Protocol.parse_request "drop\t s1" with
  | Ok (Protocol.Request (Admission.Drop { shop })) ->
      Alcotest.(check string) "tab+space drop" "s1" shop
  | _ -> Alcotest.fail "tab+space drop misparsed");
  let render line =
    match Protocol.parse_request line with
    | Ok (Protocol.Request r) -> Protocol.render_request r
    | Ok _ -> Alcotest.failf "%S: not a request" line
    | Error m -> Alcotest.failf "%S: %s" line m
  in
  Alcotest.(check string) "tabs parse like spaces"
    (render "add s1 task 0 6 1 1")
    (render "add\ts1\ttask 0 6 1 1")

(* Regression: [parse_tasks] only *extracted* task directives, so a
   payload smuggling any other directive (visit, or garbage like
   [procs 3]) was silently accepted with the stray line dropped.  Every
   non-task directive must be rejected outright. *)
let test_parse_tasks_whitelist () =
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" line)
    [
      "add s1 visit 1 2 ; task 0 6 1 1";
      "add s1 procs 3 ; task 0 6 1 1";
      "add s1 task 0 6 1 1 ; deadline 5";
      "add s1 frobnicate";
      "submit s1 task 0 6 1 1 ; procs 3";
    ];
  (* Comments and blank segments stay legal inside a payload. *)
  match Protocol.parse_request "add s1 task 0 6 1 1 ; # a note ; ; task 1 7 1 1" with
  | Ok (Protocol.Request (Admission.Add { shop; tasks })) ->
      Alcotest.(check string) "shop" "s1" shop;
      Alcotest.(check int) "both tasks kept" 2 (List.length tasks)
  | _ -> Alcotest.fail "commented add payload rejected"

(* ------------------------------------------------------------------ *)
(* Concurrent TCP transport                                            *)

let test_resolve_host () =
  Alcotest.(check string) "dotted quad" "127.0.0.1"
    (Unix.string_of_inet_addr (Wire.resolve_host "127.0.0.1"));
  Alcotest.(check string) "hostname resolves" "127.0.0.1"
    (Unix.string_of_inet_addr (Wire.resolve_host "localhost"));
  match Wire.resolve_host "no-such-host.invalid" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bogus hostname resolved"

(* Run [serve_tcp] on an ephemeral port in its own domain, hand the
   bound port to [f], and join the server once [f] has consumed
   [max_connections] connections. *)
let with_server ?(jobs = 1) ?(accept_pool = 3) ?(window = 64) ?(drainers = 1)
    ~max_connections f =
  let config =
    { Batcher.default_config with Batcher.jobs; Batcher.queue_capacity = 4096 }
  in
  let stripes = Stripes.create ~config ~stripes:drainers () in
  let mu = Mutex.create () and cv = Condition.create () in
  let port = ref 0 in
  let srv =
    Domain.spawn (fun () ->
        Server.serve_tcp ~schedules:false ~max_connections ~accept_pool ~window
          ~ready:(fun p ->
            Mutex.lock mu;
            port := p;
            Condition.signal cv;
            Mutex.unlock mu)
          ~port:0 stripes)
  in
  Mutex.lock mu;
  while !port = 0 do
    Condition.wait cv mu
  done;
  let p = !port in
  Mutex.unlock mu;
  let r = f p in
  (* Only join on success: a failed assertion must surface, not hang
     behind a server still waiting for its connection quota. *)
  Domain.join srv;
  r

(* One client session: connect, read the greeting, send every line plus
   [quit], then read replies to end-of-stream.  With [recv_timeout] a
   reply that never comes fails the read instead of hanging the test. *)
let tcp_session ?recv_timeout port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_float fd Unix.SO_RCVTIMEO) recv_timeout;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let greeting = input_line ic in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  output_string oc "quit\n";
  flush oc;
  let replies = ref [] in
  (try
     while true do
       replies := input_line ic :: !replies
     done
   with End_of_file -> ());
  close_in_noerr ic;
  (greeting, List.rev !replies)

let prefix_shop pfx : Admission.request -> Admission.request = function
  | Admission.Submit { shop; instance } -> Admission.Submit { shop = pfx ^ shop; instance }
  | Admission.Add { shop; tasks } -> Admission.Add { shop = pfx ^ shop; tasks }
  | Admission.Query { shop } -> Admission.Query { shop = pfx ^ shop }
  | Admission.Drop { shop } -> Admission.Drop { shop = pfx ^ shop }

(* The sequential oracle for one connection: replay just that
   connection's log through a fresh single-domain batcher. *)
let oracle_replies log =
  let config = { Batcher.default_config with Batcher.queue_capacity = 4096 } in
  let outcomes = Batcher.process_log (Batcher.create ~config ()) log in
  Array.to_list (Array.map (Protocol.render_reply ~schedules:false) outcomes)

(* The transport's headline guarantee: M concurrent pipelined clients
   on disjoint shop namespaces each read exactly the reply stream a
   dedicated sequential server would have produced for their own
   request log — at every jobs value, under any interleaving the
   scheduler happens to pick. *)
let test_concurrent_transport () =
  let n_clients = 3 and requests = 24 in
  let logs =
    List.init n_clients (fun c ->
        List.map (prefix_shop (Printf.sprintf "c%d." c)) (gen_log (300 + c) requests))
  in
  let expected = List.map (fun log -> oracle_replies log @ [ "bye" ]) logs in
  let run_once ~jobs =
    with_server ~jobs ~accept_pool:n_clients ~max_connections:n_clients (fun port ->
        logs
        |> List.map (fun log ->
               let lines = List.map Protocol.render_request log in
               Domain.spawn (fun () -> tcp_session port lines))
        |> List.map Domain.join)
  in
  List.iter
    (fun jobs ->
      let results = run_once ~jobs in
      List.iteri
        (fun i ((greeting, replies), want) ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d client %d greeting" jobs i)
            Protocol.greeting greeting;
          Alcotest.(check (list string))
            (Printf.sprintf "jobs=%d client %d replies match its sequential oracle" jobs i)
            want replies)
        (List.combine results expected))
    [ 1; 4 ]

(* Regression: teardown closed the socket without draining the write
   side, so a reply buffered behind [quit] could be lost.  A pipelined
   request+quit written in one burst must still yield the reply line,
   the farewell, then a clean EOF. *)
let test_quit_flushes_replies () =
  with_server ~accept_pool:1 ~max_connections:1 (fun port ->
      let greeting, replies = tcp_session port [ "query ghost" ] in
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check (list string))
        "reply drained before farewell"
        [ "info shop=ghost unknown"; "bye" ]
        replies)

(* Regression: a connection that vanishes before (or during) setup must
   not take the accept pool down — the next connection is served
   normally. *)
let test_abrupt_disconnect () =
  with_server ~accept_pool:1 ~max_connections:2 (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.close fd;
      let greeting, replies = tcp_session port [ "query ghost" ] in
      Alcotest.(check string) "second connection greeted" Protocol.greeting greeting;
      Alcotest.(check (list string))
        "second connection served"
        [ "info shop=ghost unknown"; "bye" ]
        replies)

(* ------------------------------------------------------------------ *)
(* Striped batcher                                                     *)

(* The striping invariant's headline: replaying one interleaved log
   (same-shop chains and cross-shop traffic mixed) through 1, 2 and 4
   stripes yields byte-identical replies — the stripe map is a pure
   function of the shop name, same-shop requests stay FIFO on their
   stripe, and the caches are transparent however their contents
   partition. *)
let test_stripe_determinism () =
  let config = { Batcher.default_config with Batcher.queue_capacity = 4096 } in
  (* Interleave two namespaces round-robin so consecutive requests
     almost always hit different stripes while each shop's own history
     stays in order. *)
  let a = gen_log 501 60 and b = List.map (prefix_shop "x.") (gen_log 502 60) in
  let rec weave = function
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: weave (xs, ys)
  in
  let log = weave (a, b) in
  let render outcomes =
    Array.to_list (Array.map (Protocol.render_reply ~schedules:true) outcomes)
  in
  let run stripes =
    render (Stripes.process_log (Stripes.create ~config ~stripes ()) log)
  in
  let baseline = run 1 in
  (* The log's shops must actually spread over stripes, or the check is
     vacuous. *)
  let shops =
    List.sort_uniq compare (List.map Batcher.shop_of log)
  in
  let hit =
    List.sort_uniq compare
      (List.map (fun s -> Stripes.stripe_index ~stripes:4 s) shops)
  in
  Alcotest.(check bool) "log spans multiple stripes" true (List.length hit > 1);
  List.iter
    (fun stripes ->
      Alcotest.(check (list string))
        (Printf.sprintf "stripes=%d replies byte-identical to 1-stripe" stripes)
        baseline (run stripes))
    [ 2; 4 ];
  (* Request ids partition without collision across stripes. *)
  let s4 = Stripes.create ~config ~stripes:4 () in
  ignore (Stripes.process_log s4 log);
  let ids_seen = Stripes.last_id s4 in
  Alcotest.(check bool) "ids handed out" true (ids_seen >= List.length log / 2)

(* The striped TCP transport against per-connection sequential oracles:
   same guarantee as [test_concurrent_transport], now with one drainer
   domain per stripe. *)
let test_multi_drainer_transport () =
  let n_clients = 3 and requests = 24 in
  let logs =
    List.init n_clients (fun c ->
        List.map (prefix_shop (Printf.sprintf "d%d." c)) (gen_log (700 + c) requests))
  in
  let expected = List.map (fun log -> oracle_replies log @ [ "bye" ]) logs in
  List.iter
    (fun drainers ->
      let results =
        with_server ~drainers ~accept_pool:n_clients ~max_connections:n_clients
          (fun port ->
            logs
            |> List.map (fun log ->
                   let lines = List.map Protocol.render_request log in
                   Domain.spawn (fun () -> tcp_session port lines))
            |> List.map Domain.join)
      in
      List.iteri
        (fun i ((greeting, replies), want) ->
          Alcotest.(check string)
            (Printf.sprintf "drainers=%d client %d greeting" drainers i)
            Protocol.greeting greeting;
          Alcotest.(check (list string))
            (Printf.sprintf "drainers=%d client %d replies match oracle" drainers i)
            want replies)
        (List.combine results expected))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Wire read-error surface and the shared stdio read path              *)

(* A connected loopback socket pair: (client, accepted server side). *)
let loopback_pair () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let server, _ = Unix.accept lsock in
  Unix.close lsock;
  (client, server)

(* Close [client] with SO_LINGER 0: the peer sees RST instead of FIN. *)
let reset client =
  Unix.setsockopt_optint client Unix.SO_LINGER (Some 0);
  Unix.close client

(* A peer that dies hard (RST) must surface as [`Error], not a clean
   [`Eof] — serve_tcp and the dispatcher account the two separately. *)
let test_wire_error_surface () =
  let client, server = loopback_pair () in
  let r = Wire.make_reader server in
  ignore (Unix.write_substring client "hello\n" 0 6);
  (match Wire.read_line r with
  | `Line l -> Alcotest.(check string) "line before reset" "hello" l
  | _ -> Alcotest.fail "expected the line written before the reset");
  reset client;
  (match Wire.read_line r with
  | `Error _ -> ()
  | `Eof -> Alcotest.fail "reset surfaced as clean EOF"
  | `Line _ | `Too_long -> Alcotest.fail "reset surfaced as data");
  Unix.close server

(* Regression for the stdio transport's move onto the bounded Wire
   reader: an oversized request line is answered with the protocol
   error and ends the session instead of hanging or misparsing the
   line's tail. *)
let test_session_oversized_line () =
  (* The session stops reading mid-line at the cap; closing the read
     end un-blocks the writer thread (EPIPE, not a killing SIGPIPE). *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let oversized = String.make (Wire.max_line + 8) 'a' in
  let writer =
    Thread.create
      (fun () ->
        let payload = "query ghost\n" ^ oversized ^ "\nquery ghost\n" in
        (try Wire.write_all req_w payload with Unix.Unix_error _ -> ());
        Unix.close req_w)
      ()
  in
  let oc = Unix.out_channel_of_descr rep_w in
  Server.session ~schedules:false ~chunk:1 (Stripes.create ()) req_r oc;
  close_out oc;
  Unix.close req_r;
  Thread.join writer;
  let ic = Unix.in_channel_of_descr rep_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  match List.rev !lines with
  | [ greeting; reply; err ] ->
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check string) "first request answered" "info shop=ghost unknown" reply;
      Alcotest.(check bool) "oversized line answered with the protocol error" true
        (String.length err >= 5 && String.sub err 0 5 = "error");
      (* The third request never ran: the session ended at the cap. *)
      ()
  | lines ->
      Alcotest.failf "expected greeting+reply+error then EOF, got %d lines"
        (List.length lines)

(* Regression: the stdio session ended silently on a hard read error
   while the TCP transport counted it.  Same RST setup as
   [test_wire_error_surface], with the session on the accepted socket:
   the reset is counted into the stripes' [stats]/[metrics]. *)
let test_session_counts_read_errors () =
  let client, server = loopback_pair () in
  let rep_r, rep_w = Unix.pipe () in
  let stripes = Stripes.create () in
  let session =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr rep_w in
        Server.session ~schedules:false ~chunk:1 stripes server oc;
        close_out oc)
      ()
  in
  let ic = Unix.in_channel_of_descr rep_r in
  Alcotest.(check string) "greeting" Protocol.greeting (input_line ic);
  Wire.write_all client "query ghost\n";
  (* The reply proves the line was consumed before the reset. *)
  Alcotest.(check string) "reply before reset" "info shop=ghost unknown" (input_line ic);
  reset client;
  Thread.join session;
  Alcotest.(check bool) "session ended after the reset" true
    (try ignore (input_line ic); false with End_of_file -> true);
  close_in ic;
  Unix.close server;
  let stats = Protocol.render_stats stripes in
  let metrics = String.split_on_char ';' (Protocol.render_metrics stripes) in
  Alcotest.(check bool) ("stats count the reset: " ^ stats) true
    (String.ends_with ~suffix:" read_errors=1" stats);
  List.iter
    (fun line ->
      Alcotest.(check bool) ("metrics carry " ^ line) true (List.mem line metrics))
    [ "serve_stripes 1"; "serve_transport_read_errors_total 1" ]

(* ------------------------------------------------------------------ *)
(* The per-request exception boundary                                  *)

(* Task sums past 2^62: the solver raises [Rat.Overflow] on these. *)
let huge = "4600000000000000000" and half = "2300000000000000000"

(* One stdio session over pipes on a fresh one-stripe service: the reply
   lines after the greeting, and the stripes. *)
let stdio_session lines =
  let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  Wire.write_all req_w (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  Unix.close req_w;
  let stripes = Stripes.create () in
  let oc = Unix.out_channel_of_descr rep_w in
  Server.session ~schedules:false stripes req_r oc;
  close_out oc;
  Unix.close req_r;
  let ic = Unix.in_channel_of_descr rep_r in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (read []) in
  close_in ic;
  (List.tl lines, stripes)

(* Regression: the overflow escaped [Batcher.step] and killed
   [e2e-serve --stdio] with exit 125. *)
let test_overflow_submit_answered () =
  let replies, stripes =
    stdio_session [ Printf.sprintf "submit big task 0 %s %s %s %s" huge half half half; "ping" ]
  in
  Alcotest.(check (list string)) "error internal, then pong"
    [ "error shop=big internal"; "pong " ^ Protocol.version ] replies;
  Alcotest.(check bool) "counted" true
    (List.mem "serve_internal_errors_total 1"
       (String.split_on_char ';' (Protocol.render_metrics stripes)))

let test_overflow_add_uncommitted () =
  let replies, _ =
    stdio_session
      [ "submit s task 0 10 1 1 1"; Printf.sprintf "add s task 0 %s %s %s %s" huge huge huge huge;
        "query s" ]
  in
  Alcotest.(check (list string)) "the add is not committed"
    [ "admitted shop=s tasks=1 algo=eedf makespan=3"; "error shop=s internal";
      "info shop=s tasks=1" ]
    replies

(* Regression: on TCP the overflow killed the stripe's drainer domain,
   and every later request on that stripe hung. *)
let test_overflow_keeps_stripe_stepping () =
  with_server ~drainers:1 ~max_connections:1 (fun port ->
      let _, replies =
        tcp_session ~recv_timeout:10. port
          [ Printf.sprintf "submit big task 0 %s %s %s %s" huge half half half;
            "submit s task 0 10 1 1 1"; "query s" ]
      in
      Alcotest.(check (list string)) "later requests on the stripe answered"
        [ "error shop=big internal"; "admitted shop=s tasks=1 algo=eedf makespan=3";
          "info shop=s tasks=1"; "bye" ]
        replies)

(* ------------------------------------------------------------------ *)
(* The shared listener, driven with a trivial echo handler             *)

let echo conn r =
  let rec loop () =
    match Wire.read_line r with
    | `Line "quit" -> Wire.push_end conn (Some "bye")
    | `Line l ->
        Wire.push_line conn l;
        loop ()
    | `Eof | `Error _ | `Too_long -> Wire.push_end conn None
  in
  loop ()

(* [Wire.serve] over [echo] in its own domain: the bound port, a flag
   set once [serve] returns, and the count of handled connections. *)
let spawn_echo ?max_connections ~accept_pool ~control () =
  let mu = Mutex.create () and cv = Condition.create () in
  let port = ref 0 in
  let finished = Atomic.make false and handled = Atomic.make 0 in
  let domain =
    Domain.spawn (fun () ->
        Wire.serve ?max_connections ~accept_pool ~control ~greeting:"echo ready"
          ~ready:(fun p ->
            Mutex.lock mu;
            port := p;
            Condition.signal cv;
            Mutex.unlock mu)
          ~port:0
          (fun conn r ->
            Atomic.incr handled;
            echo conn r);
        Atomic.set finished true)
  in
  Mutex.lock mu;
  while !port = 0 do
    Condition.wait cv mu
  done;
  let p = !port in
  Mutex.unlock mu;
  (p, finished, handled, domain)

(* Wait (bounded) for [serve] to return; on a timeout shut it down so
   the domain can be joined and the failure reported. *)
let await_return ~control (finished, domain) what =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let returned = Atomic.get finished in
  if not returned then Wire.shutdown control;
  Domain.join domain;
  Alcotest.(check bool) what true returned

let test_wire_quota () =
  let control = Wire.control () in
  let port, finished, handled, domain =
    spawn_echo ~max_connections:2 ~accept_pool:4 ~control ()
  in
  List.iter
    (fun line ->
      let greeting, replies = tcp_session port [ line ] in
      Alcotest.(check string) "greeting" "echo ready" greeting;
      Alcotest.(check (list string)) "echoed" [ line; "bye" ] replies)
    [ "a"; "b" ];
  await_return ~control (finished, domain) "serve returns after the quota";
  Alcotest.(check int) "exactly N connections handled" 2 (Atomic.get handled);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> Alcotest.fail "listener still accepting after the quota"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Unix.close fd

let test_wire_shutdown () =
  let control = Wire.control () in
  let port, finished, _, domain = spawn_echo ~accept_pool:2 ~control () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let r = Wire.make_reader fd in
  let next () = Wire.read_line r in
  Alcotest.(check bool) "greeted" true (next () = `Line "echo ready");
  Wire.write_all fd "ping\n";
  Alcotest.(check bool) "live connection echoes" true (next () = `Line "ping");
  (* One accept domain owns the live connection; the other is blocked
     in accept.  Shutdown must release both. *)
  Wire.shutdown control;
  (match next () with
  | `Eof -> ()
  | `Error (Unix.EAGAIN | Unix.EWOULDBLOCK) -> Alcotest.fail "live connection not reset"
  | `Error _ -> ()
  | `Line l -> Alcotest.failf "unexpected line after shutdown: %s" l
  | `Too_long -> Alcotest.fail "unexpected oversized line");
  Unix.close fd;
  await_return ~control (finished, domain) "serve returns after shutdown";
  Wire.shutdown control (* idempotent *)

let test_wire_shutdown_before_bind () =
  let control = Wire.control () in
  Wire.shutdown control;
  let ready_called = ref false in
  Wire.serve ~control ~greeting:"echo ready" ~ready:(fun _ -> ready_called := true) ~port:0
    echo;
  Alcotest.(check bool) "ready never called" false !ready_called

let suite =
  [
    ("cache: LRU bookkeeping", `Quick, test_cache_lru);
    ("cache: capacity 0 and invalid", `Quick, test_cache_disabled_and_invalid);
    ("cache: canonical key permutation-invariant", `Quick,
     test_canonical_key_permutation_invariant);
    ("cache: incremental merge matches full canonicalization", `Quick,
     test_merge_matches_canonicalize);
    ("cache: keyer skips digests on repeats", `Quick, test_keyer_reuses);
    ("batcher: byte-identical replies across jobs", `Slow, test_deterministic_across_jobs);
    ("batcher: cache transparency", `Slow, test_cache_transparent);
    ("fuzz: serve differential class agrees", `Slow, test_fuzz_serve_class);
    ("admission: admitted schedules pass the checker", `Quick, test_admitted_schedules_check);
    ("admission: rejection carries a confirmed certificate", `Quick,
     test_rejection_certificate);
    ("admission: rejected sets never commit", `Quick, test_rejected_never_commits);
    ("batcher: backpressure answers overloaded", `Quick, test_backpressure);
    ("batcher: same-shop requests split batches", `Quick, test_batch_splits_same_shop);
    ("dispatcher: admitted schedules replay without misses", `Slow,
     test_dispatcher_replays_admissions);
    ("protocol: request round-trips", `Quick, test_protocol_roundtrip);
    ("protocol: controls and parse errors", `Quick, test_protocol_errors_and_controls);
    ("protocol: reply rendering", `Quick, test_protocol_render_reply);
    ("protocol: large reply log digest pinned", `Quick, test_render_pinned_digest);
    prop_render_schedule_matches_printf;
    ("admission: warm delta path serves adds", `Quick, test_incremental_warm_path);
    ("admission: cold shops count delta misses", `Quick, test_incremental_fallback_counted);
    ("batcher: delta path transparent across jobs", `Quick,
     test_incremental_transparent_across_jobs);
    ("protocol: metrics expose incremental counters", `Quick,
     test_metrics_exposes_incremental);
    prop_identical_adds_one_path;
    ("protocol: any whitespace splits words", `Quick, test_protocol_whitespace);
    ("protocol: add payloads whitelist task directives", `Quick,
     test_parse_tasks_whitelist);
    ("server: resolve_host accepts addresses and hostnames", `Quick, test_resolve_host);
    ("server: concurrent clients match their sequential oracles", `Slow,
     test_concurrent_transport);
    ("server: quit flushes buffered replies", `Quick, test_quit_flushes_replies);
    ("server: abrupt disconnect leaves the pool serving", `Quick, test_abrupt_disconnect);
    ("stripes: replies byte-identical across stripe counts", `Slow,
     test_stripe_determinism);
    ("server: multi-drainer transport matches sequential oracles", `Slow,
     test_multi_drainer_transport);
    ("wire: hard reset surfaces as `Error, not EOF", `Quick, test_wire_error_surface);
    ("server: oversized stdio line answered and session ended", `Quick,
     test_session_oversized_line);
    ("server: stdio session counts hard read errors", `Quick,
     test_session_counts_read_errors);
    ("server: stdio overflow answered error internal", `Quick, test_overflow_submit_answered);
    ("server: overflowing add is not committed", `Quick, test_overflow_add_uncommitted);
    ("server: overflow keeps the TCP stripe stepping", `Quick,
     test_overflow_keeps_stripe_stepping);
    ("wire: max_connections ends serve after N accepts", `Quick, test_wire_quota);
    ("wire: shutdown wakes accepts, resets connections", `Quick, test_wire_shutdown);
    ("wire: shutdown before bind returns at once", `Quick,
     test_wire_shutdown_before_bind);
  ]
