(* A striped batcher: [n] independent {!Batcher.t} instances with
   requests routed by a deterministic hash of their shop name, so all
   requests on one shop land on one stripe and commit sequentially
   there, while distinct shops spread across stripes and drain on
   separate domains.

   Determinism: an admission decision reads only its own shop's
   committed set, the canonical cache is transparency-verified
   (cache-on and cache-off replies are identical by construction), and
   the stripe map is a pure function of the shop name — so the reply
   to each request is byte-identical at any stripe count, and each
   connection's reply order is preserved by the transport's reply-slot
   queue regardless of which stripe fills a slot.  Request ids are
   partitioned (stripe [k] of [n] strides by [n] from offset [k]), so
   per-id trace invariants hold at any stripe count. *)

(* FNV-1a with the same murmur-style finalizer the cluster registry
   uses for its ring positions.  Re-implemented here rather than shared
   because the dependency points the other way: [e2e_cluster] builds on
   [e2e_serve].  The two need not agree — this hash picks a stripe
   inside one server, the registry's picks a shard across servers. *)
let fnv_basis = Int64.to_int 0xcbf29ce484222325L (* truncated to 63 bits *)
let mix_m1 = Int64.to_int 0xff51afd7ed558ccdL
let mix_m2 = Int64.to_int 0xc4ceb9fe1a85ec53L

let mix h =
  let h = h lxor (h lsr 33) in
  let h = h * mix_m1 in
  let h = h lxor (h lsr 33) in
  let h = h * mix_m2 in
  let h = h lxor (h lsr 33) in
  h land max_int

let fnv1a s =
  let h = ref fnv_basis in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  mix !h

let stripe_index ~stripes shop = if stripes <= 1 then 0 else fnv1a shop mod stripes

type t = {
  batchers : Batcher.t array;
  read_errors : int Atomic.t;  (* hard transport read errors, every session *)
}

let create ?config ?(stripes = 1) () =
  if stripes < 1 then invalid_arg "Stripes.create: stripes must be >= 1";
  {
    batchers =
      Array.init stripes (fun k ->
          Batcher.create ?config ~id_offset:k ~id_stride:stripes ());
    read_errors = Atomic.make 0;
  }

let count t = Array.length t.batchers
let batchers t = t.batchers
let batcher t k = t.batchers.(k)
let config t = Batcher.config t.batchers.(0)
let stripe_of t req = stripe_index ~stripes:(count t) (Batcher.shop_of req)

let submit t req =
  let k = stripe_of t req in
  match Batcher.submit t.batchers.(k) req with
  | `Queued -> `Queued k
  | `Overloaded -> `Overloaded

let note_read_error t = Atomic.incr t.read_errors
let read_errors t = Atomic.get t.read_errors
let pending t = Array.fold_left (fun acc b -> acc + Batcher.pending b) 0 t.batchers
let last_id t = Array.fold_left (fun acc b -> max acc (Batcher.last_id b)) 0 t.batchers

(* Aggregations over the stripes.  Counters sum; per-shop lists concat
   and re-sort (shops are disjoint across stripes by construction). *)

let service_stats t =
  let sum f = Array.fold_left (fun acc b -> acc + f (Batcher.service_stats b)) 0 t.batchers in
  let merge f =
    Array.fold_left (fun acc b -> f (Batcher.service_stats b) @ acc) [] t.batchers
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    Batcher.submitted = sum (fun s -> s.Batcher.submitted);
    rejected_backpressure = sum (fun s -> s.Batcher.rejected_backpressure);
    batches = sum (fun s -> s.Batcher.batches);
    batched_requests = sum (fun s -> s.Batcher.batched_requests);
    max_batch =
      Array.fold_left
        (fun acc b -> max acc (Batcher.service_stats b).Batcher.max_batch)
        0 t.batchers;
    budget_exhausted = sum (fun s -> s.Batcher.budget_exhausted);
    verify_failures = sum (fun s -> s.Batcher.verify_failures);
    internal_errors = sum (fun s -> s.Batcher.internal_errors);
    resident = merge (fun s -> s.Batcher.resident);
    verdicts = merge (fun s -> s.Batcher.verdicts);
  }

let cache_stats t =
  Array.fold_left
    (fun acc b ->
      match (acc, Batcher.cache_stats b) with
      | None, s | s, None -> s
      | Some a, Some s ->
          Some
            {
              Cache.hits = a.Cache.hits + s.Cache.hits;
              misses = a.Cache.misses + s.Cache.misses;
              evictions = a.Cache.evictions + s.Cache.evictions;
              size = a.Cache.size + s.Cache.size;
            })
    None t.batchers

let keyer_stats t =
  Array.fold_left
    (fun acc b ->
      let s = Batcher.keyer_stats b in
      {
        Cache.Keyer.reused = acc.Cache.Keyer.reused + s.Cache.Keyer.reused;
        rendered = acc.Cache.Keyer.rendered + s.Cache.Keyer.rendered;
      })
    { Cache.Keyer.reused = 0; rendered = 0 }
    t.batchers

(* Sequential replay, the striped analogue of {!Batcher.process_log}:
   submit every request in log order to its stripe, drain each stripe,
   and scatter the replies back to log positions.  Each stripe's drain
   is in its own submission order, which is the log-order restriction
   to that stripe — so per-request outcomes are independent of the
   stripe count (the array this module's determinism tests compare). *)
let process_log t log =
  let log = Array.of_list log in
  let outcomes = Array.make (Array.length log) Batcher.Overloaded in
  let queued = Array.map (fun _ -> Queue.create ()) t.batchers in
  Array.iteri
    (fun i req ->
      match submit t req with
      | `Queued k -> Queue.push i queued.(k)
      | `Overloaded -> ())
    log;
  Array.iteri
    (fun k b ->
      List.iter
        (fun (_, tr, reply) ->
          Rtrace.finish tr;
          outcomes.(Queue.pop queued.(k)) <- Batcher.Reply reply)
        (Batcher.drain b))
    t.batchers;
  outcomes
