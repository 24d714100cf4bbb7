(* Shard registry: the dispatcher's map from shop names to shard
   addresses.

   Shards sit on a consistent-hash ring ([vnodes] positions each, FNV-1a
   over "id#k"); a shop routes to the first shard at or after its own
   hash position, walking forward past dead shards — so all requests
   for a shop land on the same shard while it lives, and fail over to
   the next live shard in hash order when it dies, without moving any
   other shop.  Routing is a pure function of the membership + liveness
   state, never of request history.

   Liveness is two-sided: the status checker reports probe outcomes
   ([note_probe]; [fail_threshold] consecutive failures mark a shard
   dead, one success revives it), and the dispatcher's upstream
   connections report hard I/O errors ([report_down]) which mark a
   shard dead immediately — a broken pipe is not a timing blip. *)

type state = Live | Dead

type entry = {
  id : string;  (* "host:port" — the registration key *)
  host : string;
  port : int;
  mutable state : state;
  mutable fails : int;  (* consecutive probe failures *)
  mutable reports : int;  (* [report_down] calls so far *)
}

type t = {
  mu : Mutex.t;
  fail_threshold : int;
  vnodes : int;
  mutable ring : (int * entry) array;  (* sorted by (position, id) *)
  mutable entries : entry list;  (* sorted by id *)
  mutable failovers : int;  (* routes that skipped a dead home shard *)
  mutable deaths : int;
  mutable revivals : int;
}

(* FNV-1a with a murmur3-style finalizer, folded into OCaml's positive
   int range.  Plain FNV-1a has weak avalanche on the trailing bytes,
   and our inputs ("host:port#k") share long prefixes and differ only
   in final digits — without the finalizer every vnode of a shard
   lands on one contiguous arc of the ring and one shard absorbs
   nearly all shops.  Deterministic across runs and platforms (64-bit
   int assumed, as everywhere in this codebase). *)
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

let parse_id id =
  match String.rindex_opt id ':' with
  | None -> None
  | Some i -> (
      let host = String.sub id 0 i in
      let port = String.sub id (i + 1) (String.length id - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" && p > 0 && p < 65536 -> Some (host, p)
      | _ -> None)

let id_of ~host ~port = Printf.sprintf "%s:%d" host port

let default_vnodes = 64

let rebuild t =
  let ring =
    List.concat_map
      (fun e ->
        List.init t.vnodes (fun k -> (fnv1a (Printf.sprintf "%s#%d" e.id k), e)))
      t.entries
    |> Array.of_list
  in
  Array.sort
    (fun (p1, (e1 : entry)) (p2, e2) ->
      match compare p1 p2 with 0 -> compare e1.id e2.id | c -> c)
    ring;
  t.ring <- ring

let create ?(fail_threshold = 3) ?(vnodes = default_vnodes) shards =
  if fail_threshold < 1 then invalid_arg "Registry.create: fail_threshold < 1";
  if vnodes < 1 then invalid_arg "Registry.create: vnodes < 1";
  let entries =
    List.map
      (fun (host, port) ->
        { id = id_of ~host ~port; host; port; state = Live; fails = 0; reports = 0 })
      shards
    |> List.sort_uniq (fun a b -> compare a.id b.id)
  in
  let t =
    { mu = Mutex.create (); fail_threshold; vnodes; ring = [||]; entries;
      failovers = 0; deaths = 0; revivals = 0 }
  in
  rebuild t;
  t

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let add t ~host ~port =
  let id = id_of ~host ~port in
  locked t (fun () ->
      if List.exists (fun e -> e.id = id) t.entries then `Already
      else begin
        let e = { id; host; port; state = Live; fails = 0; reports = 0 } in
        t.entries <- List.sort (fun a b -> compare a.id b.id) (e :: t.entries);
        rebuild t;
        `Added
      end)

let remove t id =
  locked t (fun () ->
      if List.exists (fun e -> e.id = id) t.entries then begin
        t.entries <- List.filter (fun e -> e.id <> id) t.entries;
        rebuild t;
        true
      end
      else false)

let find_opt t id = locked t (fun () -> List.find_opt (fun e -> e.id = id) t.entries)

(* First ring position at or after [h] (binary search, wrapping). *)
let ring_start ring h =
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p, _ = ring.(mid) in
    if p < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

(* Walk the ring from the shop's position to the first live shard.
   Returns the shard and whether the shop's home shard was skipped
   because it is dead (a failover).  O(ring) worst case but each step
   is an array read. *)
let route_walk ring h =
  let n = Array.length ring in
  if n = 0 then None
  else begin
    let start = ring_start ring h in
    let home = snd ring.(start) in
    let rec go i =
      if i >= n then None
      else
        let _, e = ring.((start + i) mod n) in
        if e.state = Live then Some (e, home.state = Dead) else go (i + 1)
    in
    go 0
  end

let route t shop =
  locked t (fun () ->
      match route_walk t.ring (fnv1a shop) with
      | None -> None
      | Some (e, failed_over) ->
          if failed_over then t.failovers <- t.failovers + 1;
          Some e)

let home t shop =
  locked t (fun () ->
      let n = Array.length t.ring in
      if n = 0 then None else Some (snd t.ring.(ring_start t.ring (fnv1a shop))))

let mark_dead_locked t e =
  if e.state = Live then begin
    e.state <- Dead;
    t.deaths <- t.deaths + 1;
    true
  end
  else false

let mark_live_locked t e =
  e.fails <- 0;
  if e.state = Dead then begin
    e.state <- Live;
    t.revivals <- t.revivals + 1;
    true
  end
  else false

(* A success whose probe began before the latest hard-error report
   ([since] below [reports]) is stale: its pong may predate the
   failure, so it must not revive the shard the report just killed. *)
let note_probe ?since t id ~ok =
  locked t (fun () ->
      match List.find_opt (fun e -> e.id = id) t.entries with
      | None -> `Unknown
      | Some e ->
          if ok then
            match since with
            | Some n when n < e.reports -> `Unchanged
            | _ -> if mark_live_locked t e then `Revived else `Unchanged
          else begin
            e.fails <- e.fails + 1;
            if e.fails >= t.fail_threshold && mark_dead_locked t e then `Died
            else `Unchanged
          end)

let report_down t id =
  locked t (fun () ->
      match List.find_opt (fun e -> e.id = id) t.entries with
      | None -> false
      | Some e ->
          e.reports <- e.reports + 1;
          e.fails <- max e.fails t.fail_threshold;
          mark_dead_locked t e)

let snapshot t =
  locked t (fun () -> List.map (fun e -> (e.id, e.state, e.fails)) t.entries)

let live t = locked t (fun () -> List.filter (fun e -> e.state = Live) t.entries)

type stats = { shards : int; live_shards : int; failovers : int; deaths : int; revivals : int }

let stats t =
  locked t (fun () ->
      {
        shards = List.length t.entries;
        live_shards = List.length (List.filter (fun e -> e.state = Live) t.entries);
        failovers = t.failovers;
        deaths = t.deaths;
        revivals = t.revivals;
      })
