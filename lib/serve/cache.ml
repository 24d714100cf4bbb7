module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Visit = E2e_model.Visit
module Obs = E2e_obs.Obs

type canonical = {
  shop : Recurrence_shop.t;
  perm : int array;
  key : string Lazy.t;
}

let compare_task (a : Task.t) (b : Task.t) =
  let c = Rat.compare a.release b.release in
  if c <> 0 then c
  else
    let c = Rat.compare a.deadline b.deadline in
    if c <> 0 then c
    else
      let rec go j =
        if j >= Array.length a.proc_times then 0
        else
          let c = Rat.compare a.proc_times.(j) b.proc_times.(j) in
          if c <> 0 then c else go (j + 1)
      in
      go 0

(* The digest of the canonical rendering.  The visit sequence is part of
   the key: Instance_io omits the identity sequence, and two shops with
   the same tasks but different sequences are different instances.  The
   header plus the per-task lines is byte-identical to the historical
   [Printf]-over-[Instance_io.to_string] rendering. *)
let digest (shop : Recurrence_shop.t) =
  let visit = shop.Recurrence_shop.visit in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "visit:";
  Array.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int p))
    visit.Visit.sequence;
  Buffer.add_char buf '\n';
  if not (Visit.is_traditional visit) then begin
    Buffer.add_string buf "visit";
    Array.iter (fun p -> Buffer.add_string buf (Printf.sprintf " %d" (p + 1))) visit.Visit.sequence;
    Buffer.add_char buf '\n'
  end;
  Array.iter (fun t -> Buffer.add_string buf (Instance_io.task_line t)) shop.tasks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let sort_positions (tasks : Task.t array) =
  (* Stable, so equal tasks keep their relative order and the permutation
     is a deterministic function of the instance. *)
  Array.of_list
    (List.stable_sort
       (fun a b -> compare_task tasks.(a) tasks.(b))
       (Array.to_list (Array.init (Array.length tasks) Fun.id)))

(* The task arrays below start as copies and are overwritten in place:
   past 256 elements, [Array.map]/[init] would seed a fresh array with
   its first element, and when that is a young block [caml_make_vect]
   forces a minor collection (stopping every domain) to promote it; a
   copy is gathered straight into the major heap. *)
let permuted (tasks : Task.t array) perm =
  let out = Array.copy tasks in
  Array.iteri (fun p orig -> out.(p) <- tasks.(orig)) perm;
  out

(* [sorted] in canonical order, relabelled [0..n-1].  The key is left
   unforced: only a cache lookup needs it, and [Add]s never look up. *)
let of_sorted visit (sorted : Task.t array) perm =
  let tasks = Array.copy sorted in
  Array.iteri
    (fun p (t : Task.t) ->
      tasks.(p) <- Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
    sorted;
  let shop = Recurrence_shop.make ~visit tasks in
  { shop; perm; key = lazy (digest shop) }

let canonicalize (shop : Recurrence_shop.t) =
  let perm = sort_positions shop.tasks in
  of_sorted shop.visit (permuted shop.Recurrence_shop.tasks perm) perm

let key shop = Lazy.force (canonicalize shop).key

(* Stable merge of the committed canonical order with the stably sorted
   fresh tasks — ties take the committed side — equals the stable sort
   of committed-then-fresh, i.e. exactly what [canonicalize] would
   compute on the merged candidate. *)
let merge ~(base : canonical) (fresh : Task.t array) =
  let committed = base.shop.Recurrence_shop.tasks in
  let n = Array.length committed and k = Array.length fresh in
  let fperm = sort_positions fresh in
  let perm = Array.make (n + k) 0 in
  let i = ref 0 and j = ref 0 in
  let sorted = Array.append committed fresh in
  for p = 0 to n + k - 1 do
    sorted.(p) <-
      (if !j >= k || (!i < n && compare_task committed.(!i) fresh.(fperm.(!j)) <= 0) then begin
         perm.(p) <- base.perm.(!i);
         incr i;
         committed.(!i - 1)
       end
       else begin
         perm.(p) <- n + fperm.(!j);
         incr j;
         fresh.(fperm.(!j - 1))
       end)
  done;
  of_sorted base.shop.Recurrence_shop.visit sorted perm

(* {2 Structural pre-key}

   The keyer memoizes finished canonicals under a cheap structural
   fingerprint; a repeat (byte-identical or any permutation) is
   recognised by sorting alone and shares the stored shop and its key,
   which is rendered and digested at most once.  The fingerprint is only an
   index — every memo hit is verified task-by-task with exact rational
   comparison before reuse, so hash collisions cost time, never
   correctness. *)
module Keyer = struct
  type nonrec t = {
    memo : (int, canonical list ref) Hashtbl.t;
    mutable reused : int;
    mutable rendered : int;
  }

  let create () = { memo = Hashtbl.create 256; reused = 0; rendered = 0 }

  let fingerprint (visit : Visit.t) (tasks : Task.t array) =
    (* Order-dependent over the canonical (sorted) order is fine: the
       lookup happens after sorting. *)
    Array.fold_left
      (fun acc (t : Task.t) ->
        (acc * 31)
        lxor Hashtbl.hash (t.Task.release, t.deadline, t.proc_times))
      (Hashtbl.hash visit.Visit.sequence)
      tasks
    land max_int

  let same_instance (visit : Visit.t) (sorted : Task.t array) (c : canonical) =
    Array.length sorted = Array.length c.shop.Recurrence_shop.tasks
    && c.shop.Recurrence_shop.visit.Visit.sequence = visit.Visit.sequence
    &&
    let rec go p =
      p >= Array.length sorted
      || (compare_task sorted.(p) c.shop.Recurrence_shop.tasks.(p) = 0 && go (p + 1))
    in
    go 0

  let canonicalize t (shop : Recurrence_shop.t) =
    let perm = sort_positions shop.Recurrence_shop.tasks in
    let sorted = permuted shop.Recurrence_shop.tasks perm in
    let visit = shop.Recurrence_shop.visit in
    let fp = fingerprint visit sorted in
    (* Bound the memo so a never-repeating stream cannot grow it without
       limit; resetting only costs future re-renders. *)
    if Hashtbl.length t.memo > 65536 then Hashtbl.reset t.memo;
    let bucket =
      match Hashtbl.find_opt t.memo fp with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add t.memo fp b;
          b
    in
    match List.find_opt (same_instance visit sorted) !bucket with
    | Some c ->
        t.reused <- t.reused + 1;
        Obs.incr "serve.keyer.reuse";
        { c with perm }
    | None ->
        t.rendered <- t.rendered + 1;
        Obs.incr "serve.keyer.render";
        let c = of_sorted visit sorted perm in
        bucket := c :: !bucket;
        c

  type stats = { reused : int; rendered : int }

  let stats (t : t) = { reused = t.reused; rendered = t.rendered }
end

(* Doubly-linked intrusive LRU list: [head] is most recent, [tail] the
   eviction candidate. *)
type 'a node = {
  nkey : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: capacity must be >= 0";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      Obs.incr "serve.cache.hit";
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr "serve.cache.miss";
      None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.nkey;
      t.evictions <- t.evictions + 1;
      Obs.incr "serve.cache.eviction"

let add t key value =
  if t.cap > 0 then
    match Hashtbl.find_opt t.table key with
    | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
    | None ->
        if Hashtbl.length t.table >= t.cap then evict_lru t;
        let node = { nkey = key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats (t : 'a t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; size = length t }

let hit_rate (t : 'a t) =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total
