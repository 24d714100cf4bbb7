module Rat = E2e_rat.Rat
module Obs = E2e_obs.Obs
module Heap = E2e_ds.Heap
module Iset = E2e_ds.Interval_set

type rat = Rat.t
type job = { id : int; release : rat; deadline : rat }
type region = { left : rat; right : rat }

let pp_region ppf r = Format.fprintf ppf "(%a, %a)" Rat.pp r.left Rat.pp r.right

let feasible_starts ~tau jobs starts =
  let n = Array.length jobs in
  Array.length starts = n
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         if Rat.(starts.(i) < jobs.(i).release) then ok := false;
         if Rat.(Rat.add starts.(i) tau > jobs.(i).deadline) then ok := false
       done;
       let order = List.init n Fun.id in
       let order = List.sort (fun a b -> Rat.compare starts.(a) starts.(b)) order in
       let rec disjoint = function
         | a :: (b :: _ as rest) ->
             if Rat.(Rat.add starts.(a) tau > starts.(b)) then ok := false;
             disjoint rest
         | [] | [ _ ] -> ()
       in
       disjoint order;
       !ok
     end

let brute_force_feasible ~tau jobs =
  let n = Array.length jobs in
  let used = Array.make n false in
  (* For a fixed order, starting every job as early as possible is
     optimal, so feasibility = some order survives the greedy timing. *)
  let rec go scheduled free =
    if scheduled = n then true
    else
      let rec try_jobs i =
        if i >= n then false
        else if used.(i) then try_jobs (i + 1)
        else begin
          let s = Rat.max free jobs.(i).release in
          if Rat.(Rat.add s tau <= jobs.(i).deadline) then begin
            used.(i) <- true;
            let ok = go (scheduled + 1) (Rat.add s tau) in
            used.(i) <- false;
            if ok then true else try_jobs (i + 1)
          end
          else try_jobs (i + 1)
        end
      in
      try_jobs 0
  in
  let earliest =
    Array.fold_left (fun acc j -> Rat.min acc j.release) Rat.zero jobs
  in
  go 0 earliest

(* {1 The engine}

   Forbidden regions come from one backward packing pass per distinct
   release [r]: walk the jobs with release [>= r] in decreasing-deadline
   order, keeping the running packing start

     s := adjust_down (min (deadline_j, s) - tau)

   (each job must end both by its own deadline and by the start of the
   job packed after it; [adjust_down] leaves the regions found so far).
   The final [s] is the minimum over deadlines [d] of the classical
   latest packing of the jobs with release [>= r] and deadline [<= d],
   so [(s - tau, r)] is the union of the per-deadline regions for [r],
   and [s < r] proves infeasibility.  EDF dispatch that hops over the
   final regions is then optimal.  Results are exact (the [eedf-fast]
   differential fuzz class checks regions, schedules and verdicts
   against {!E2e_fuzz.Single_machine_ref}).

   Passes run over releases in DESCENDING order, so each pass only
   activates the jobs of its own release on top of the previous pass's
   state.  No pass can afford the O(n) walk above.  Its result for
   release [r] equals

       min over active deadlines d of  g^{N(d)}(d)

   where [g x = adjust_down (x - tau)], [N(d)] counts active jobs
   (release [>= r]) with deadline [<= d], and "active deadline" means
   one owned by at least one active job: [g] is monotone and commutes
   with [min], so unrolling the fold splits it per deadline, and
   within an equal-deadline run more applications of the strictly
   decreasing [g] only lower the value, leaving the run's last job —
   the full count [N(d)] — as the minimum.  Without regions
   [g^k(d) = d - k tau]; each region hop can lower a walk by at most
   the region's length, and a walk crosses each region at most once
   (values strictly decrease), so the true value lies within
   [Lambda = measure regions] of the no-region value.  The sweep
   keeps the no-region values [d - N(d) tau] in a lazy min segment
   tree (plus a Fenwick tree for the counts), reads the tree minimum,
   evaluates [g^{N(d)}(d)] exactly — batching the subtraction steps
   between regions with one floor division — only for the candidates
   within [Lambda] of it, and takes the exact minimum. *)

(* Fenwick tree of active-job counts per deadline position (1-based
   internally). *)
module Fenwick = struct
  type t = int array (* length m + 1 *)

  let create m : t = Array.make (m + 1) 0

  let add (t : t) i v =
    let n = Array.length t - 1 in
    let i = ref (i + 1) in
    while !i <= n do
      t.(!i) <- t.(!i) + v;
      i := !i + (!i land - !i)
    done

  (* Number of active jobs with deadline <= position [i]. *)
  let prefix (t : t) i =
    let s = ref 0 and i = ref (i + 1) in
    while !i > 0 do
      s := !s + t.(!i);
      i := !i - (!i land - !i)
    done;
    !s
end

(* Lazy min segment tree over deadline positions.  A leaf is [Some v]
   for an active deadline (value [d - N(d) tau]) and [None] for an
   inactive one; [range_add k] records "N grew by k" on a leaf range,
   i.e. subtracts [k tau] from the active leaves, lazily. *)
module Vtree = struct
  type t = {
    size : int; (* power of two >= leaf count, >= 1 *)
    min_ : Rat.t option array; (* 1-based, 2*size nodes *)
    pend : int array; (* pending count per internal node *)
    tau : rat;
  }

  let create ~tau m =
    let size = ref 1 in
    while !size < m do
      size := 2 * !size
    done;
    { size = !size; min_ = Array.make (2 * !size) None; pend = Array.make (2 * !size) 0; tau }

  let apply t i k =
    if k <> 0 then begin
      (match t.min_.(i) with
      | Some v -> t.min_.(i) <- Some (Rat.sub v (Rat.mul_int t.tau k))
      | None -> ());
      if i < t.size then t.pend.(i) <- t.pend.(i) + k
    end

  let push t i =
    let k = t.pend.(i) in
    if k <> 0 then begin
      apply t (2 * i) k;
      apply t ((2 * i) + 1) k;
      t.pend.(i) <- 0
    end

  let pull t i =
    t.min_.(i) <-
      (match (t.min_.(2 * i), t.min_.((2 * i) + 1)) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (Rat.min a b))

  let range_add t l r k =
    if l <= r && k <> 0 then begin
      let rec go i lo hi =
        if r < lo || hi < l then ()
        else if l <= lo && hi <= r then apply t i k
        else begin
          push t i;
          let mid = (lo + hi) / 2 in
          go (2 * i) lo mid;
          go ((2 * i) + 1) (mid + 1) hi;
          pull t i
        end
      in
      go 1 0 (t.size - 1)
    end

  (* Activate a leaf with its absolute value: pending counts on the
     path are pushed down first, so the assignment is not retroactively
     shifted by adds that predate the activation (the absolute value
     already accounts for them via the Fenwick count). *)
  let assign t pos v =
    let rec go i lo hi =
      if lo = hi then t.min_.(i) <- Some v
      else begin
        push t i;
        let mid = (lo + hi) / 2 in
        if pos <= mid then go (2 * i) lo mid else go ((2 * i) + 1) (mid + 1) hi;
        pull t i
      end
    in
    go 1 0 (t.size - 1)

  let root_min t = t.min_.(1)

  (* Visit every active leaf whose value is <= threshold. *)
  let iter_le t threshold f =
    let rec go i lo hi =
      match t.min_.(i) with
      | None -> ()
      | Some v when Rat.compare v threshold > 0 -> ()
      | Some v ->
          if lo = hi then f lo v
          else begin
            push t i;
            let mid = (lo + hi) / 2 in
            go (2 * i) lo mid;
            go ((2 * i) + 1) (mid + 1) hi
          end
    in
    go 1 0 (t.size - 1)
end

(* g^k(x) for g(x) = adjust_down regions (x - tau), batching the plain
   subtraction steps between regions: from [x], the first region the
   walk can enter is the rightmost one with left < x (higher regions
   start at or above x and the walk only descends), so one floor
   division finds how many steps reach it.  O(regions crossed) region
   lookups. *)
let eval_gk regions ~tau x k =
  let rec go x k =
    if k = 0 then x
    else
      let j = Iset.rightmost_left_below regions x in
      if j < 0 then Rat.sub x (Rat.mul_int tau k)
      else
        let _, rt = Iset.get regions j in
        (* Smallest i >= 1 with x - i tau < rt (strict: the interval is
           open, landing exactly on rt stays outside). *)
        let i0 =
          let q = Rat.floor (Rat.div (Rat.sub x rt) tau) + 1 in
          if q < 1 then 1 else q
        in
        if i0 > k then Rat.sub x (Rat.mul_int tau k)
        else
          (* The landing value y < rt may sit strictly inside region j
             — or inside a lower region entirely cleared by the last
             tau-step — so settle it with a general lookup.  Either
             way the settled value is <= l, so each recursion consumes
             at least one region: O(regions crossed) total. *)
          let y = Rat.sub x (Rat.mul_int tau i0) in
          go (Iset.adjust_down regions y) (k - i0)
  in
  go x k

type core = Feasible_regions of Iset.t | Infeasible_at of rat

(* The packing sweep over every distinct release, descending. *)
let compute_core ~tau (jobs : job array) =
  if Rat.(tau <= Rat.zero) then invalid_arg "Single_machine: tau must be positive";
  let n = Array.length jobs in
  (* Distinct deadlines, ascending. *)
  let sorted = Array.map (fun j -> j.deadline) jobs in
  Array.sort Rat.compare sorted;
  let m = ref 0 in
  Array.iteri
    (fun i d ->
      if i = 0 || not (Rat.equal d sorted.(i - 1)) then begin
        sorted.(!m) <- d;
        incr m
      end)
    sorted;
  let m = !m in
  let distinct = Array.sub sorted 0 m in
  let dpos d =
    let lo = ref 0 and hi = ref (m - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Rat.compare distinct.(mid) d < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* Job positions by release, descending. *)
  let by_release = Array.init n Fun.id in
  Array.sort (fun a b -> Rat.compare jobs.(b).release jobs.(a).release) by_release;
  let fen = Fenwick.create m in
  let tree = Vtree.create ~tau m in
  let active = Array.make (max m 1) false in
  let regions = ref Iset.empty in
  let lambda = ref Rat.zero in
  let idx = ref 0 in
  let verdict = ref None in
  while !verdict = None && !idx < n do
    let r = jobs.(by_release.(!idx)).release in
    while !idx < n && Rat.equal jobs.(by_release.(!idx)).release r do
      let p = by_release.(!idx) in
      let pos = dpos jobs.(p).deadline in
      Fenwick.add fen pos 1;
      if active.(pos) then Vtree.range_add tree pos (m - 1) 1
      else begin
        Vtree.range_add tree (pos + 1) (m - 1) 1;
        Vtree.assign tree pos
          (Rat.sub jobs.(p).deadline (Rat.mul_int tau (Fenwick.prefix fen pos)));
        active.(pos) <- true
      end;
      incr idx
    done;
    let s =
      match Vtree.root_min tree with
      | None -> assert false (* at least one job just activated *)
      | Some vmin ->
          let threshold = Rat.add vmin !lambda in
          let best = ref None in
          Vtree.iter_le tree threshold (fun pos _ ->
              let tv = eval_gk !regions ~tau distinct.(pos) (Fenwick.prefix fen pos) in
              match !best with
              | Some b when Rat.(b <= tv) -> ()
              | _ -> best := Some tv);
          Option.get !best
    in
    if Rat.(s < r) then verdict := Some (Infeasible_at r)
    else begin
      let left = Rat.sub s tau in
      if Rat.(left < r) then begin
        regions := Iset.add !regions ~left ~right:r;
        lambda := Iset.measure !regions
      end
    end
  done;
  match !verdict with Some c -> c | None -> Feasible_regions !regions

(* Priority-driven EDF dispatch on two heaps: [pending] orders the
   not-yet-released jobs by release time, [ready] orders the released
   ones by (deadline, release, id) — the heap pop is exactly the EDF
   choice with the deterministic tie-break.  [advance] postpones
   candidate dispatch instants (identity for the plain-EDF ablation,
   forbidden-region hopping for the optimal schedule).  Job ids must be
   positions; returns the starts by position and the first position
   whose deadline is missed. *)
let pending_cmp (a : job) (b : job) =
  let c = Rat.compare a.release b.release in
  if c <> 0 then c else compare a.id b.id

let ready_cmp (a : job) (b : job) =
  let c = Rat.compare a.deadline b.deadline in
  let c = if c <> 0 then c else Rat.compare a.release b.release in
  if c <> 0 then c else compare a.id b.id

let dispatch ~tau ~advance (jobs : job array) =
  let n = Array.length jobs in
  let starts = Array.make n Rat.zero in
  let missed = ref None in
  let pending = Heap.create ~cmp:pending_cmp in
  let ready = Heap.create ~cmp:ready_cmp in
  Array.iter (Heap.push pending) jobs;
  let free = ref (match Heap.peek pending with Some j -> j.release | None -> Rat.zero) in
  for _ = 1 to n do
    (* Candidate dispatch time: machine free, and at least one release.
       Every ready job was released before the machine last went busy,
       so a non-empty ready queue pins the candidate to [free]. *)
    let t =
      ref
        (if Heap.is_empty ready then
           match Heap.peek pending with
           | Some j -> Rat.max !free j.release
           | None -> assert false
         else !free)
    in
    let rec settle () =
      let t' = advance !t in
      if Rat.(t' > !t) then begin
        t := t';
        settle ()
      end
    in
    settle ();
    let rec migrate () =
      match Heap.peek pending with
      | Some j when Rat.(j.release <= !t) ->
          ignore (Heap.pop pending);
          Heap.push ready j;
          migrate ()
      | _ -> ()
    in
    migrate ();
    match Heap.pop ready with
    | None -> assert false
    | Some j ->
        starts.(j.id) <- !t;
        free := Rat.add !t tau;
        if Rat.(!free > j.deadline) && !missed = None then missed := Some j.id
  done;
  (starts, !missed)

let dense jobs = Array.mapi (fun i j -> { j with id = i }) jobs

let to_regions iset = List.map (fun (left, right) -> { left; right }) (Iset.to_list iset)

(* The entry points: each is a from-scratch run of the sweep and/or the
   dispatch loop. *)

let schedule ~tau jobs =
  if Array.length jobs = 0 then Ok [||]
  else
    Obs.span "single_machine.schedule"
      ~fields:[ ("jobs", Obs.Int (Array.length jobs)) ]
      (fun () ->
        let jobs = dense jobs in
        let core = compute_core ~tau jobs in
        if Obs.enabled () then begin
          match core with
          | Infeasible_at r ->
              Obs.event "single_machine.infeasible_window"
                ~fields:[ ("release", Obs.Str (Rat.to_string r)) ]
          | Feasible_regions iset ->
              Obs.event "single_machine.regions"
                ~fields:[ ("count", Obs.Int (Iset.cardinal iset)) ];
              List.iter
                (fun (left, right) ->
                  Obs.event "single_machine.forbidden_region"
                    ~fields:
                      [
                        ("left", Obs.Str (Rat.to_string left));
                        ("right", Obs.Str (Rat.to_string right));
                      ])
                (Iset.to_list iset)
        end;
        match core with
        | Infeasible_at _ -> Error `Infeasible
        | Feasible_regions iset -> (
            match dispatch ~tau ~advance:(Iset.adjust_up iset) jobs with
            | _, Some _ -> Error `Infeasible
            | starts, None -> Ok starts))

let forbidden_regions ~tau jobs =
  match compute_core ~tau (dense jobs) with
  | Infeasible_at _ -> Error `Infeasible
  | Feasible_regions iset -> Ok (to_regions iset)

let edf_schedule_no_regions ~tau jobs =
  match dispatch ~tau ~advance:Fun.id (dense jobs) with
  | _, Some p -> Error (`Deadline_missed jobs.(p).id)
  | starts, None -> Ok starts
