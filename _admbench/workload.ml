(* The benchmark's request streams, each a pure function of the workload
   seed.  The program under test only ever sees the request lines these
   generators produce.

   Every connection owns a disjoint shop namespace ([c<cid>-...]), so a
   connection's replies depend on its own stream alone and can be checked
   against the sequential reference interpreter one connection at a
   time. *)

module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission

type kind = Large_shop | Resubmit

let names = [ ("large-shop", Large_shop); ("resubmit", Resubmit) ]
let of_name s = List.assoc_opt s names

type gen = {
  seed_reqs : Admission.request list;
      (** Set-up requests, sent and answered before the measured phase. *)
  next : unit -> Admission.request;  (** The measured stream, unbounded. *)
}

let connections = 2

(* Both workloads run closed loop: at most this many requests in flight
   per connection. *)
let window = function Large_shop -> 1 | Resubmit -> 8

(* Same instance, tasks relabelled: a canonical-cache hit that is not a
   textual repeat. *)
let permute g (shop : Recurrence_shop.t) =
  let order = Prng.permutation g (Recurrence_shop.n_tasks shop) in
  Recurrence_shop.make ~visit:shop.visit
    (Array.mapi
       (fun p orig ->
         let t = shop.Recurrence_shop.tasks.(orig) in
         Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
       order)

(* [large-shop]: a few shops per connection, seeded with a few hundred
   tasks each (240, so cost does not vary with the seed).  Tasks
   arrive as a steady stream (one every 5/4 time
   units, each due within 2-3x its total processing time), so every
   instance is feasible with light per-processor load and the solvers
   decide it without falling back to the certificate search.  Even shops
   are identical-length (unit times: the incremental EEDF path), odd
   shops arbitrary (times in [0.9, 1.1]: Algorithm H, through the cache).
   Adds continue the shop's stream and keep its class; after
   [adds_per_cycle] adds a shop is dropped and its seed instance
   resubmitted, so shop size stays in [n, n + 2 * adds_per_cycle] and
   per-request cost is stationary. *)
let large_shops = 4
let large_stages = 4
let adds_per_cycle = 12

type large = {
  name : string;
  identical : bool;
  seed_size : int;
  instance : Recurrence_shop.t;
  mutable added : int;  (** Tasks added since the last (re)submit. *)
  mutable adds : int;
  mutable dropped : bool;
}

let stream_task g ~identical i =
  let taus =
    Array.init large_stages (fun _ ->
        if identical then Rat.one else Prng.rat_uniform g ~den:100 (Rat.make 9 10) (Rat.make 11 10))
  in
  let release = Rat.add (Rat.make (5 * i) 4) (Prng.rat_uniform g ~den:100 Rat.zero (Rat.make 1 4)) in
  let stretch = Prng.rat_uniform g ~den:100 (Rat.of_int 2) (Rat.of_int 3) in
  (release, Rat.add release (Rat.mul (Rat.sum_array taus) stretch), taus)

let large_shop ~seed c =
  let g = Prng.of_path [| seed; 0x1a59e; c |] in
  let shops =
    Array.init large_shops (fun k ->
        let identical = k mod 2 = 0 and seed_size = 240 in
        let tasks =
          Array.init seed_size (fun i ->
              let release, deadline, proc_times = stream_task g ~identical i in
              Task.make ~id:i ~release ~deadline ~proc_times)
        in
        { name = Printf.sprintf "c%d-L%d" c k; identical; seed_size;
          instance = Recurrence_shop.make ~visit:(E2e_model.Visit.traditional large_stages) tasks;
          added = 0; adds = 0; dropped = false })
  in
  let next () =
    let s = shops.(Prng.int g large_shops) in
    if s.dropped then begin
      s.dropped <- false;
      s.adds <- 0;
      s.added <- 0;
      Admission.Submit { shop = s.name; instance = s.instance }
    end
    else if s.adds >= adds_per_cycle then begin
      s.dropped <- true;
      Admission.Drop { shop = s.name }
    end
    else if Prng.float g 1.0 < 0.75 then begin
      s.adds <- s.adds + 1;
      let tasks =
        List.init (1 + Prng.int g 2) (fun _ ->
            s.added <- s.added + 1;
            stream_task g ~identical:s.identical (s.seed_size + s.added - 1))
      in
      Admission.Add { shop = s.name; tasks }
    end
    else Admission.Query { shop = s.name }
  in
  {
    seed_reqs =
      Array.to_list
        (Array.map (fun s -> Admission.Submit { shop = s.name; instance = s.instance }) shops);
    next;
  }

(* [resubmit]: seed-then-resubmit.  Each connection seeds [resubmit_shops]
   12-16-task shops on 3-4 processors, then drops a random shop and
   resubmits a fresh permutation of its instance: a canonical-cache hit
   when the entry is resident, a full solve when it was evicted.  The
   servers' pinned cache capacity makes the working set about 3x one
   shard's cache.  Shop k has 12 + k mod 5 tasks on 3 + k mod 2
   processors, so every seed draws the same mix of sizes and a run's cost
   does not depend on it. *)
let resubmit_shops = 96

(* Only instances Algorithm H schedules (about half of those drawn): the
   service admits them without the portfolio and certificate searches,
   whose cost differs by orders of magnitude between instances, so a
   run's cost would otherwise depend on how many such instances its seed
   drew. *)
let rec h_schedulable g ~n ~m =
  let shop =
    Feasible_gen.generate g
      { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.2;
        slack_factor = 1.5 +. Prng.float g 0.5 }
  in
  match E2e_core.Algo_h.schedule shop with
  | Ok _ -> Recurrence_shop.of_traditional shop
  | Error _ -> h_schedulable g ~n ~m

let resubmit ~seed c =
  let g = Prng.of_path [| seed; 0xc1; c |] in
  let shop k = Printf.sprintf "c%d-s%d" c k in
  let instances =
    Array.init resubmit_shops (fun k ->
        h_schedulable g ~n:(12 + (k mod 5)) ~m:(3 + (k mod 2)))
  in
  let pending = ref None in
  let next () =
    match !pending with
    | Some r ->
        pending := None;
        r
    | None ->
        let k = Prng.int g resubmit_shops in
        pending := Some (Admission.Submit { shop = shop k; instance = permute g instances.(k) });
        Admission.Drop { shop = shop k }
  in
  {
    seed_reqs =
      List.init resubmit_shops (fun k -> Admission.Submit { shop = shop k; instance = instances.(k) });
    next;
  }

let generators kind ~seed =
  Array.init connections (fun c ->
      match kind with Large_shop -> large_shop ~seed c | Resubmit -> resubmit ~seed c)
