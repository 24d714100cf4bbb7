(* The traced run: the workload's request stream replayed in process
   through each layer's public functions, with a span around every call.

   The replay keeps the served topology's partition of shops: one
   batcher, solver cache and keyer per shard, each shop on the shard the
   dispatcher's registry routes it to, each cache at the shards' pinned
   capacity.  The shards' batchers are stepped in turn, on one core.

   Two replays share request ids (the request's position in the
   submission order), so one id finds a request in both:
   - the batcher replay drives [Protocol.parse_request], [Batcher.submit],
     [Batcher.step] and [Protocol.render_reply] with the workload's
     closed-loop windows, as the servers' drainers would;
   - the admission replay runs the same requests through [Admission]'s
     phases in [decide_prepared] order, with the solver cache and keyer.
   The admission replay also runs untraced, through [Admission.apply], to
   measure what the spans cost.  Spans stay in memory and are written
   once, at the end. *)

module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol
module Rtrace = E2e_serve.Rtrace
module Json = E2e_obs.Json

type span = {
  id : int;
  name : string;
  req : int;  (** Shared request id; [-1] for batch-level spans. *)
  parent : int;  (** [0] for a root span. *)
  start : float;
  stop : float;
  tag : string;
}

type tracer = { mutable last_id : int; mutable spans : span list }

let tracer () = { last_id = 0; spans = [] }
(* Seconds on the monotonic clock, at nanosecond resolution: several of
   the timed calls take well under a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fresh_id tr =
  tr.last_id <- tr.last_id + 1;
  tr.last_id

let record tr ~id ~name ~req ~parent ~start ?(tag = "") stop =
  tr.spans <- { id; name; req; parent; start; stop; tag } :: tr.spans

let timed tr ~name ~req ~parent ?tag f =
  let id = fresh_id tr in
  let start = now () in
  let x = f () in
  record tr ~id ~name ~req ~parent ~start ?tag (now ());
  x

(* ------------------------------------------------------------------ *)
(* Batcher replay                                                     *)

type queued = { rid : int; conn : int; arrived : float; entered : float; root : int }

(* Closed-loop replays run flat out in process; this caps the spans a
   replay keeps in memory. *)
let max_requests = 12_000

let batcher_replay tr ~config ~shards ~route ~kind ~seed ~seconds =
  let bs = Array.init shards (fun _ -> Batcher.create ~config ()) in
  let fifos = Array.init shards (fun _ -> Queue.create ()) in
  let gens = Workload.generators kind ~seed in
  let log = ref [] (* (rid, request, is_seed), most recent first *) in
  let next_rid = ref 0 in
  let note request ~is_seed =
    incr next_rid;
    log := (!next_rid, request, is_seed) :: !log;
    !next_rid
  in
  (* A shard's queue holds at most both connections' windows, far below
     its capacity. *)
  let submit r =
    match Batcher.submit bs.(route r) r with
    | `Queued -> ()
    | `Overloaded -> failwith "replay overloaded a batcher"
  in
  (* Set-up, untraced: the seed requests, answered before the clock starts. *)
  Array.iter
    (fun g ->
      List.iter
        (fun r ->
          ignore (note r ~is_seed:true);
          submit r)
        g.Workload.seed_reqs)
    gens;
  Array.iter (fun b -> List.iter (fun (_, tr, _) -> Rtrace.finish tr) (Batcher.drain b)) bs;
  let seeded = !next_rid in
  let reply_bytes = ref 0 and replies = ref 0 and steps = ref 0 in
  let deadline = now () +. seconds in
  let free = Array.make Workload.connections (Workload.window kind) in
  let arrive c =
    let arrived = now () in
    let request = gens.(c).Workload.next () in
    let rid = note request ~is_seed:false in
    let root = fresh_id tr in
    let line = Protocol.render_request request in
    match timed tr ~name:"protocol.parse" ~req:rid ~parent:root (fun () -> Protocol.parse_request line) with
    | Ok (Protocol.Request r) ->
        timed tr ~name:"batcher.submit" ~req:rid ~parent:root (fun () -> submit r);
        Queue.push { rid; conn = c; arrived; entered = now (); root } fifos.(route r)
    | _ -> failwith ("request line does not parse back: " ^ line)
  in
  let step s =
    let step_id = fresh_id tr in
    let step_start = now () in
    let answered = Batcher.step bs.(s) in
    record tr ~id:step_id ~name:"batcher.step" ~req:(-1) ~parent:0 ~start:step_start
      ~tag:(string_of_int (List.length answered)) (now ());
    incr steps;
    List.iter
      (fun (_, rt, reply) ->
        let q = Queue.pop fifos.(s) in
        record tr ~id:(fresh_id tr) ~name:"batcher.queue" ~req:q.rid ~parent:q.root
          ~start:q.entered step_start;
        let line =
          timed tr ~name:"protocol.render" ~req:q.rid ~parent:q.root (fun () ->
              Protocol.render_reply (Batcher.Reply reply))
        in
        Rtrace.finish rt;
        record tr ~id:q.root ~name:"request" ~req:q.rid ~parent:0 ~start:q.arrived (now ());
        reply_bytes := !reply_bytes + String.length line + 1;
        incr replies;
        free.(q.conn) <- free.(q.conn) + 1)
      answered
  in
  let rec go () =
    if now () < deadline && !next_rid - seeded < max_requests then
      for c = 0 to Workload.connections - 1 do
        while free.(c) > 0 do
          free.(c) <- free.(c) - 1;
          arrive c
        done
      done;
    if Array.exists (fun b -> Batcher.pending b > 0) bs then begin
      Array.iteri (fun s b -> if Batcher.pending b > 0 then step s) bs;
      go ()
    end
  in
  go ();
  ( List.rev !log,
    [
      ("replies", Json.int !replies);
      ("reply_bytes", Json.int !reply_bytes);
      ("steps", Json.int !steps);
    ] )

(* ------------------------------------------------------------------ *)
(* Admission replay                                                   *)

let budget = Admission.Unbounded

let algo_tag = function
  | Admission.Admitted { algo; _ } -> algo
  | Admission.Rejected _ -> "rejected"
  | Admission.Undecided _ -> "undecided"

type counts = { mutable adds : int; mutable inc_hits : int }

(* [Admission.apply] taken apart into the calls [decide_prepared] makes,
   each under its own span. *)
let traced_apply tr counts ~cache ~keyer ~candidates state (rid, request) =
  let root = fresh_id tr in
  let start = now () in
  let span name ?tag f = timed tr ~name ~req:rid ~parent:root ?tag f in
  let state, reply =
    match span "admission.prepare" (fun () -> Admission.prepare ~keyer state request) with
    | Error reply -> (span "admission.commit" (fun () -> Admission.commit state request None), reply)
    | Ok p ->
        candidates := (rid, p.Admission.candidate) :: !candidates;
        if p.is_add then counts.adds <- counts.adds + 1;
        let canonical, inc_state =
          match span "admission.inc" (fun () -> Admission.try_incremental p) with
          | Some r ->
              counts.inc_hits <- counts.inc_hits + 1;
              r
          | None -> (
              let key = Admission.cache_key ~budget ?hint:(Admission.hint_of p) p.canon in
              let id = fresh_id tr and t = now () in
              match Cache.find cache key with
              | Some s ->
                  record tr ~id ~name:"cache.lookup" ~req:rid ~parent:root ~start:t ~tag:"hit" (now ());
                  (s.Admission.decision, Admission.state_of_cached s)
              | None ->
                  record tr ~id ~name:"cache.lookup" ~req:rid ~parent:root ~start:t ~tag:"miss" (now ());
                  let id = fresh_id tr and t = now () in
                  let s, st = Admission.solve_prepared ~budget p in
                  record tr ~id ~name:"admission.solve" ~req:rid ~parent:root ~start:t
                    ~tag:(algo_tag s.decision) (now ());
                  span "cache.add" (fun () -> Cache.add cache key s);
                  (s.decision, st))
        in
        let decision =
          span "admission.verify" (fun () ->
              Admission.verify_decision (Admission.relabel p.canon p.candidate canonical))
        in
        Admission.record_decision decision;
        ( span "admission.commit" (fun () ->
              Admission.commit ~prepared:p ~state:inc_state state request (Some decision)),
          Admission.Decided
            { shop = Batcher.shop_of request;
              n_tasks = E2e_model.Recurrence_shop.n_tasks p.candidate; decision } )
  in
  record tr ~id:root ~name:"admission.request" ~req:rid ~parent:0 ~start (now ());
  (state, reply)

let render reply = Digest.string (Protocol.render_reply (Batcher.Reply reply))

(* One pass over [log]: the seed requests untraced, then the measured
   ones through [apply], each request with its shard's cache and keyer.
   Returns the measured seconds, the measured request count, the reply
   digests and the keyers' (reused, rendered) counts over the measured
   requests. *)
let admission_pass ~cache_capacity ~shards ~route log apply =
  let caches = Array.init shards (fun _ -> Cache.create ~capacity:cache_capacity)
  and keyers = Array.init shards (fun _ -> Cache.Keyer.create ()) in
  let on r f = f ~cache:caches.(route r) ~keyer:keyers.(route r) in
  let state = ref Admission.empty in
  List.iter
    (fun (_, r, is_seed) ->
      if is_seed then
        state := fst (on r (fun ~cache ~keyer -> Admission.apply ~budget ~cache ~keyer !state r)))
    log;
  let measured = List.filter_map (fun (rid, r, is_seed) -> if is_seed then None else Some (rid, r)) log in
  let keyed () =
    Array.fold_left
      (fun (u, d) k ->
        let s = Cache.Keyer.stats k in
        (u + s.reused, d + s.rendered))
      (0, 0) keyers
  in
  let reused0, rendered0 = keyed () in
  let t0 = now () in
  let replies =
    List.map
      (fun ((_, r) as rr) ->
        let st, reply = on r (fun ~cache ~keyer -> apply ~cache ~keyer !state rr) in
        state := st;
        reply)
      measured
  in
  let secs = now () -. t0 in
  let reused, rendered = keyed () in
  (secs, List.length measured, List.map render replies, (reused - reused0, rendered - rendered0))

let run ~kind ~seed ~seconds ~cache_capacity ~jobs ~shards ~spans_out =
  let tr = tracer () in
  let config = { Batcher.default_config with cache_capacity; jobs } in
  let route =
    let shard_of = Client.router shards in
    fun r -> shard_of (Batcher.shop_of r)
  and shards = List.length shards in
  let log, batcher_counts = batcher_replay tr ~config ~shards ~route ~kind ~seed ~seconds in
  let untraced_s, n, digests_u, _ =
    admission_pass ~cache_capacity ~shards ~route log (fun ~cache ~keyer st (_, r) ->
        Admission.apply ~budget ~cache ~keyer st r)
  in
  let counts = { adds = 0; inc_hits = 0 } and candidates = ref [] in
  let traced_s, _, digests_t, (reused, rendered) =
    admission_pass ~cache_capacity ~shards ~route log (traced_apply tr counts ~candidates)
  in
  (* Canonicalization, timed apart from the pipeline so it does not count
     towards the overhead figure. *)
  List.iter
    (fun (rid, cand) ->
      ignore (timed tr ~name:"cache.canonicalize" ~req:rid ~parent:0 (fun () -> Cache.canonicalize cand)))
    !candidates;
  Out_channel.with_open_text spans_out (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("id", Json.int s.id); ("name", Json.Str s.name); ("req", Json.int s.req);
                    ("parent", Json.int s.parent); ("start", Json.Num s.start);
                    ("end", Json.Num s.stop); ("tag", Json.Str s.tag) ]));
          output_char oc '\n')
        (List.rev tr.spans));
  Json.Obj
    ([
       ("requests", Json.int n);
       ("untraced_s", Json.Num untraced_s);
       ("traced_s", Json.Num traced_s);
       ("replays_agree", Json.Bool (List.equal String.equal digests_u digests_t));
       ("adds", Json.int counts.adds);
       ("inc_hits", Json.int counts.inc_hits);
       ("keyer_reused", Json.int reused);
       ("keyer_rendered", Json.int rendered);
     ]
    @ batcher_counts)
