module Recurrence_shop = E2e_model.Recurrence_shop
module Pool = E2e_exec.Pool
module Obs = E2e_obs.Obs

type config = {
  queue_capacity : int;
  batch : int;
  budget : Admission.budget;
  jobs : int;
  cache_capacity : int;
}

(* The default cache capacity is sized to the working set of a
   loadgen-scale stream (a few thousand distinct canonical keys), not to
   a token "some caching" value: an LRU smaller than the working set
   thrashes and hits only on immediate repeats. *)
let default_config =
  { queue_capacity = 1024; batch = 16; budget = Admission.Unbounded; jobs = 1; cache_capacity = 4096 }

(* Always-on service accounting (plain ints on the main domain, no
   [Obs] dependency): the live half of the [metrics] protocol command,
   available even when the registry is off. *)
type service_stats = {
  submitted : int;
  rejected_backpressure : int;
  batches : int;
  batched_requests : int;
  max_batch : int;
  budget_exhausted : int;
  verify_failures : int;
  internal_errors : int;  (* requests answered [error internal] *)
  resident : (string * int) list;  (* committed tasks per shop, sorted *)
  verdicts : (string * (int * int * int)) list;
      (* per shop: admitted, rejected, undecided — sorted by shop *)
}

type svc = {
  mutable submitted : int;
  mutable rejected_backpressure : int;
  mutable batches : int;
  mutable batched_requests : int;
  mutable max_batch : int;
  mutable budget_exhausted : int;
  mutable verify_failures : int;
  mutable internal_errors : int;
  verdict_tbl : (string, int array) Hashtbl.t;  (* [| admitted; rejected; undecided |] *)
}

type t = {
  cfg : config;
  cache : Admission.solved Cache.t option;
  keyer : Cache.Keyer.t;
  mutable engine : Admission.t;
  queue : (Admission.request * Rtrace.t) Queue.t;
  mutable seq : int;  (* last request id handed out at ingress *)
  id_stride : int;  (* id increment — stripe k of n uses offset k, stride n *)
  svc : svc;
}

let create ?(config = default_config) ?(id_offset = 0) ?(id_stride = 1) () =
  if config.queue_capacity < 1 then invalid_arg "Batcher.create: queue_capacity must be >= 1";
  if config.batch < 1 then invalid_arg "Batcher.create: batch must be >= 1";
  if config.jobs < 1 then invalid_arg "Batcher.create: jobs must be >= 1";
  if config.cache_capacity < 0 then invalid_arg "Batcher.create: cache_capacity must be >= 0";
  if id_stride < 1 then invalid_arg "Batcher.create: id_stride must be >= 1";
  if id_offset < 0 || id_offset >= id_stride then
    invalid_arg "Batcher.create: id_offset must be in [0, id_stride)";
  {
    cfg = config;
    cache =
      (if config.cache_capacity = 0 then None
       else Some (Cache.create ~capacity:config.cache_capacity));
    keyer = Cache.Keyer.create ();
    engine = Admission.empty;
    queue = Queue.create ();
    seq = id_offset + 1 - id_stride;  (* first id handed out: id_offset + 1 *)
    id_stride;
    svc =
      {
        submitted = 0;
        rejected_backpressure = 0;
        batches = 0;
        batched_requests = 0;
        max_batch = 0;
        budget_exhausted = 0;
        verify_failures = 0;
        internal_errors = 0;
        verdict_tbl = Hashtbl.create 32;
      };
  }

let config t = t.cfg
let engine t = t.engine
let cache_stats t = Option.map Cache.stats t.cache
let keyer_stats t = Cache.Keyer.stats t.keyer
let pending t = Queue.length t.queue
let last_id t = t.seq

let service_stats t =
  {
    submitted = t.svc.submitted;
    rejected_backpressure = t.svc.rejected_backpressure;
    batches = t.svc.batches;
    batched_requests = t.svc.batched_requests;
    max_batch = t.svc.max_batch;
    budget_exhausted = t.svc.budget_exhausted;
    verify_failures = t.svc.verify_failures;
    internal_errors = t.svc.internal_errors;
    resident = Admission.resident_sizes t.engine;
    verdicts =
      Hashtbl.fold
        (fun shop c acc -> (shop, (c.(0), c.(1), c.(2))) :: acc)
        t.svc.verdict_tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let shop_of = function
  | Admission.Submit { shop; _ } | Add { shop; _ } | Query { shop } | Drop { shop } -> shop

let op_of = function
  | Admission.Submit _ -> "submit"
  | Add _ -> "add"
  | Query _ -> "query"
  | Drop _ -> "drop"

let submit t request =
  Obs.incr "serve.requests";
  t.svc.submitted <- t.svc.submitted + 1;
  if Queue.length t.queue >= t.cfg.queue_capacity then begin
    Obs.incr "serve.overloaded";
    t.svc.rejected_backpressure <- t.svc.rejected_backpressure + 1;
    `Overloaded
  end
  else begin
    (* Ids are assigned at ingress whether or not tracing is on, so a
       request keeps the same id when tracing is toggled. *)
    t.seq <- t.seq + t.id_stride;
    let tr =
      if Rtrace.active () then
        Rtrace.start ~id:t.seq ~op:(op_of request) ~shop:(shop_of request)
      else Rtrace.none
    in
    Queue.push (request, tr) t.queue;
    `Queued
  end

(* Phase-1 classification of one batch member. *)
type slot =
  | Resolved of Admission.reply  (* no solve needed (error/query/drop) *)
  | Hit of { solved : Admission.solved; prepared : Admission.prepared }
      (* [solved] is the cached {e canonical} decision (plus its hint);
         relabelling and verification happen in phase 3, where they are
         attributed to the verify stage like the miss path's. *)
  | Miss of { prepared : Admission.prepared; key : string option }
      (* [key] is [Some] exactly when phase 1 looked the cache up, and
         phase 3 inserts the solve under it.  Solves always run on the
         canonical form — whether or not the result will be cached — so
         verdicts are independent of the candidate's task labelling and
         cache-on/cache-off runs agree by construction. *)

let take_batch t =
  let rec go acc shops =
    if List.length acc >= t.cfg.batch then List.rev acc
    else
      match Queue.peek_opt t.queue with
      | None -> List.rev acc
      | Some (req, _) ->
          let shop = shop_of req in
          if List.mem shop shops then List.rev acc
          else begin
            let (_, tr) as item = Queue.pop t.queue in
            (* The queue stage ends when the request joins a batch. *)
            Rtrace.mark tr 0;
            go (item :: acc) (shop :: shops)
          end
  in
  go [] []

let verdict_of_reply = function
  | Admission.Decided { decision; _ } -> Admission.decision_kind decision
  | Admission.Queried _ -> "info"
  | Admission.Dropped _ -> "dropped"
  | Admission.Request_error _ -> "error"

let bump_verdict t shop = function
  | Admission.Admitted _ | Rejected _ | Undecided _ as d ->
      let cell =
        match Hashtbl.find_opt t.svc.verdict_tbl shop with
        | Some c -> c
        | None ->
            let c = [| 0; 0; 0 |] in
            Hashtbl.add t.svc.verdict_tbl shop c;
            c
      in
      let i =
        match d with Admission.Admitted _ -> 0 | Rejected _ -> 1 | Undecided _ -> 2
      in
      cell.(i) <- cell.(i) + 1;
      (match d with
      | Admission.Undecided { reason } when reason = "budget-exhausted" ->
          t.svc.budget_exhausted <- t.svc.budget_exhausted + 1
      | Admission.Undecided { reason } when reason = "verify-failed" ->
          t.svc.verify_failures <- t.svc.verify_failures + 1
      | _ -> ())

let internal_error t req =
  t.svc.internal_errors <- t.svc.internal_errors + 1;
  Admission.internal_error (shop_of req)

let step ?release t =
  match take_batch t with
  | [] -> []
  | batch ->
      Obs.span "serve.batch" (fun () ->
          Obs.incr "serve.batches";
          t.svc.batches <- t.svc.batches + 1;
          let bs = List.length batch in
          t.svc.batched_requests <- t.svc.batched_requests + bs;
          if bs > t.svc.max_batch then t.svc.max_batch <- bs;
          if Obs.stats_enabled () then Obs.observe "serve.batch_size" (float_of_int bs);
          (* Phase 1 (sequential, submission order): preconditions and
             cache lookups.  All cache mutation — and every clock read —
             stays on this domain.  Each stage of a request runs under
             {!Admission.guard}: a request that raises is answered
             [error internal], left uncommitted, and the batch goes on. *)
          let slots =
            List.map
              (fun (req, tr) ->
                let resolved reply =
                  Rtrace.mark tr 1;
                  Rtrace.mark tr 2;
                  (req, tr, Resolved reply)
                in
                match Admission.guard (Admission.prepare ~keyer:t.keyer t.engine) req with
                | Error () -> resolved (internal_error t req)
                | Ok (Error reply) -> resolved reply
                | Ok (Ok prepared) ->
                    Rtrace.mark tr 1;
                    (* The cache for Submits only — the policy
                       {!Admission.decide_prepared} uses, so cache-on
                       batched and cache-off sequential runs agree.
                       Keys are forced here, never on a worker. *)
                    let slot =
                      match Admission.cache_for prepared t.cache with
                      | None -> Miss { prepared; key = None }
                      | Some cache -> (
                          let key =
                            Admission.cache_key ~budget:t.cfg.budget
                              ?hint:prepared.Admission.hint prepared.Admission.canon
                          in
                          match Cache.find cache key with
                          | Some solved -> Hit { solved; prepared }
                          | None -> Miss { prepared; key = Some key })
                    in
                    Rtrace.mark tr 2;
                    (req, tr, slot))
              batch
          in
          (* Phase 2 (parallel): solve the misses and every Add.
             Submission order is preserved by Pool.run and each solve is
             pure — worker domains never touch the clock, so traces are
             unaffected by the domain count.  The persistent pool matters
             here: a server steps thousands of small batches, and a
             per-batch domain spawn would cost more than the solves. *)
          let misses =
            List.filter_map
              (function
                | _, _, Miss { prepared; _ } -> Some prepared
                | _, _, (Resolved _ | Hit _) -> None)
              slots
            |> Array.of_list
          in
          let solve () =
            Pool.run ~jobs:t.cfg.jobs
              (Admission.guard (fun p -> fst (Admission.solve_prepared ~budget:t.cfg.budget p)))
              misses
          in
          (* The solves read only [misses]; [submit] touches only the
             queue and the ingress counters, so the caller's lock can be
             released around them. *)
          let solved =
            match release with
            | None -> solve ()
            | Some mu ->
                Mutex.unlock mu;
                Fun.protect ~finally:(fun () -> Mutex.lock mu) solve
          in
          (* Phase 3 (sequential, submission order): relabel + verify,
             cache insertion, commits, reply emission. *)
          let next_miss = ref 0 in
          List.map
            (fun (req, tr, slot) ->
              match slot with
              | Resolved reply ->
                  Rtrace.mark tr 3;
                  Rtrace.mark tr 4;
                  t.engine <- Admission.commit t.engine req None;
                  Rtrace.mark tr 5;
                  Rtrace.set_verdict tr (verdict_of_reply reply);
                  (req, tr, reply)
              | Hit _ | Miss _ ->
                  (* the canonical solve and the keyed cache entry to
                     insert (a looked-up miss only). *)
                  let prepared, solved, key =
                    match slot with
                    | Hit { solved; prepared } -> (prepared, Ok solved, None)
                    | Miss { prepared; key } ->
                        let r = solved.(!next_miss) in
                        incr next_miss;
                        (prepared, r, key)
                    | Resolved _ -> assert false
                  in
                  let { Admission.candidate; canon; _ } = prepared in
                  Rtrace.mark tr 3;
                  let verified =
                    Result.bind solved
                      (Admission.guard (fun (s : Admission.solved) ->
                           ( Admission.verify_decision (Admission.relabel canon candidate s.decision),
                             s.hint )))
                  in
                  Rtrace.mark tr 4;
                  (match (t.cache, key, solved) with
                  | Some cache, Some key, Ok s ->
                      (* The cache stores the pre-verify canonical
                         decision; hits re-verify after relabelling, so
                         cache-on and cache-off verify identically. *)
                      Cache.add cache key s
                  | _ -> ());
                  let shop = shop_of req in
                  let reply =
                    match verified with
                    | Ok (decision, state) ->
                        Admission.record_decision decision;
                        t.engine <- Admission.commit ~prepared ~state t.engine req (Some decision);
                        bump_verdict t shop decision;
                        Admission.Decided
                          { shop; n_tasks = Recurrence_shop.n_tasks candidate; decision }
                    | Error () -> internal_error t req
                  in
                  Rtrace.mark tr 5;
                  Rtrace.set_verdict tr (verdict_of_reply reply);
                  (req, tr, reply))
            slots)

let drain t =
  let rec go acc = match step t with [] -> List.concat (List.rev acc) | r -> go (r :: acc) in
  go []

type outcome = Reply of Admission.reply | Overloaded

let pp_outcome ppf = function
  | Reply r -> Admission.pp_reply ppf r
  | Overloaded -> Format.pp_print_string ppf "overloaded"

let process_log t log =
  let log = Array.of_list log in
  let outcomes = Array.make (Array.length log) Overloaded in
  let queued = Queue.create () in
  Array.iteri
    (fun i req ->
      match submit t req with `Queued -> Queue.push i queued | `Overloaded -> ())
    log;
  List.iter
    (fun (_, tr, reply) ->
      Rtrace.finish tr;
      outcomes.(Queue.pop queued) <- Reply reply)
    (drain t);
  outcomes
