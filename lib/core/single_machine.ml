module Rat = E2e_rat.Rat
module Obs = E2e_obs.Obs
module Heap = E2e_ds.Heap

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
   within [Lambda] of it, and takes the exact minimum.

   The engine runs on native ints ({!schedule_grid}); the rational entry
   points scale their instance onto its integer time grid first.  Why
   no int the engine forms can wrap — the bound B = 4M + (n+1)T that
   every entry point checks — is proved with the grid itself, in
   [E2e_model.Grid]. *)

(* [floor (a / b)] for [b > 0]. *)
let floor_div a b =
  let q = a / b in
  if a mod b < 0 then q - 1 else q

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

module Engine = struct
  module Iset = E2e_ds.Interval_set

  type job = { id : int; release : int; deadline : int }

  (* Lazy min segment tree over deadline positions.  A leaf is live for
     an active deadline (value [d - N(d) tau]) and dead for an inactive
     one; a node is live when its subtree holds a live leaf, and its
     [min_] entry is meaningful only then.  [apply i k] records "N grew
     by k" on a subtree, i.e. subtracts [k tau] from its live leaves,
     lazily. *)
  module Vtree = struct
    type t = {
      size : int; (* power of two >= leaf count, >= 1 *)
      min_ : int array; (* 1-based, 2*size nodes *)
      live : bool array;
      pend : int array; (* pending count per internal node *)
      tau : int;
    }

    let create ~tau m =
      let size = ref 1 in
      while !size < m do
        size := 2 * !size
      done;
      {
        size = !size;
        min_ = Array.make (2 * !size) 0;
        live = Array.make (2 * !size) false;
        pend = Array.make (2 * !size) 0;
        tau;
      }

    let apply t i k =
      if k <> 0 then begin
        if t.live.(i) then t.min_.(i) <- t.min_.(i) - (t.tau * k);
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
      let a = 2 * i and b = (2 * i) + 1 in
      let la = t.live.(a) and lb = t.live.(b) in
      if la && lb then t.min_.(i) <- Int.min t.min_.(a) t.min_.(b)
      else if la then t.min_.(i) <- t.min_.(a)
      else if lb then t.min_.(i) <- t.min_.(b);
      t.live.(i) <- la || lb

    (* One more active job with deadline position [pos]: N grows by one
       on [pos, m), so the leaf at [pos] becomes live with its absolute
       value [v] and every leaf right of it loses one tau.  Pending
       counts on the path are pushed down first, so the assignment is
       not retroactively shifted by adds that predate it ([v] already
       accounts for them via the Fenwick count).  One root-to-leaf
       descent: wherever it turns left, the whole right subtree lies
       past [pos] (padding leaves past [m - 1] are never live). *)
    let activate t pos v =
      let rec go i lo hi =
        if lo = hi then begin
          t.min_.(i) <- v;
          t.live.(i) <- true
        end
        else begin
          push t i;
          let mid = (lo + hi) / 2 in
          if pos <= mid then begin
            apply t ((2 * i) + 1) 1;
            go (2 * i) lo mid
          end
          else go ((2 * i) + 1) (mid + 1) hi;
          pull t i
        end
      in
      go 1 0 (t.size - 1)

    let root_min t =
      assert t.live.(1);
      t.min_.(1)

    (* Visit the position of every live leaf whose value is <= threshold. *)
    let iter_le t threshold f =
      let rec go i lo hi =
        if t.live.(i) && t.min_.(i) <= threshold then
          if lo = hi then f lo
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
        if j < 0 then x - (tau * k)
        else
          let rt = Iset.right regions j in
          (* Smallest i >= 1 with x - i tau < rt (strict: the interval is
             open, landing exactly on rt stays outside). *)
          let i0 = Int.max 1 (floor_div (x - rt) tau + 1) in
          if i0 > k then x - (tau * k)
          else
            (* The landing value y < rt may sit strictly inside region j
               — or inside a lower region entirely cleared by the last
               tau-step — so settle it with a general lookup.  Either
               way the settled value is <= l, so each recursion consumes
               at least one region: O(regions crossed) total. *)
            go (Iset.adjust_down regions (x - (tau * i0))) (k - i0)
    in
    go x k

  type core = Feasible_regions of Iset.t | Infeasible_at of int

  (* The packing sweep over every distinct release, descending. *)
  let compute_core ~tau (jobs : job array) =
    let n = Array.length jobs in
    (* Distinct deadlines, ascending, and each job's deadline position
       among them. *)
    let by_deadline = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare jobs.(a).deadline jobs.(b).deadline) by_deadline;
    let distinct = Array.make n 0 and dpos = Array.make n 0 in
    let m = ref 0 in
    Array.iter
      (fun p ->
        let d = jobs.(p).deadline in
        if !m = 0 || d <> distinct.(!m - 1) then begin
          distinct.(!m) <- d;
          incr m
        end;
        dpos.(p) <- !m - 1)
      by_deadline;
    let m = !m in
    (* Job positions by release, descending. *)
    let by_release = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare jobs.(b).release jobs.(a).release) by_release;
    let fen = Fenwick.create m in
    let tree = Vtree.create ~tau m in
    let regions = ref Iset.empty in
    let lambda = ref 0 in
    let idx = ref 0 in
    let verdict = ref None in
    while Option.is_none !verdict && !idx < n do
      let r = jobs.(by_release.(!idx)).release in
      while !idx < n && jobs.(by_release.(!idx)).release = r do
        let p = by_release.(!idx) in
        let pos = dpos.(p) in
        Fenwick.add fen pos 1;
        Vtree.activate tree pos (jobs.(p).deadline - (tau * Fenwick.prefix fen pos));
        incr idx
      done;
      (* Every candidate's exact value is at most its no-region value,
         hence at most the threshold, and the root minimum's leaf is
         always a candidate: starting [s] at the threshold loses
         nothing. *)
      let threshold = Vtree.root_min tree + !lambda in
      let s = ref threshold in
      Vtree.iter_le tree threshold (fun pos ->
          s := Int.min !s (eval_gk !regions ~tau distinct.(pos) (Fenwick.prefix fen pos)));
      let s = !s in
      if s < r then verdict := Some (Infeasible_at r)
      else begin
        let left = s - tau in
        if left < r then begin
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
     forbidden-region hopping for the optimal schedule).  Job ids must
     be positions; returns the starts by position and the first position
     whose deadline is missed. *)
  let pending_cmp (a : job) (b : job) =
    let c = Int.compare a.release b.release in
    if c <> 0 then c else Int.compare a.id b.id

  let ready_cmp (a : job) (b : job) =
    let c = Int.compare a.deadline b.deadline in
    let c = if c <> 0 then c else Int.compare a.release b.release in
    if c <> 0 then c else Int.compare a.id b.id

  let dispatch ~tau ~advance (jobs : job array) =
    let n = Array.length jobs in
    let starts = Array.make n 0 in
    let missed = ref (-1) in
    let pending = Heap.create ~cmp:pending_cmp in
    let ready = Heap.create ~cmp:ready_cmp in
    Array.iter (Heap.push pending) jobs;
    let free = ref (match Heap.peek pending with Some j -> j.release | None -> 0) in
    for _ = 1 to n do
      (* Candidate dispatch time: machine free, and at least one
         release.  Every ready job was released before the machine last
         went busy, so a non-empty ready queue pins the candidate to
         [free]. *)
      let t =
        ref
          (if Heap.is_empty ready then
             match Heap.peek pending with
             | Some j -> Int.max !free j.release
             | None -> assert false
           else !free)
      in
      let rec settle () =
        let t' = advance !t in
        if !t < t' then begin
          t := t';
          settle ()
        end
      in
      settle ();
      let rec migrate () =
        match Heap.peek pending with
        | Some j when j.release <= !t ->
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
          free := !t + tau;
          if j.deadline < !free && !missed < 0 then missed := j.id
    done;
    (starts, !missed)
end

(* {1 Entry points}

   Every entry point is a from-scratch run of the sweep and/or the
   dispatch loop on int jobs.  Telemetry always prints the rational
   values. *)

module Grid = E2e_model.Grid

(* The engine's bound B = 4M + (n+1)T on int jobs (see [Grid]). *)
let check_bound ~tau ~release ~deadline =
  if tau <= 0 then invalid_arg "Single_machine: tau must be positive";
  if Array.length deadline <> Array.length release then
    invalid_arg "Single_machine: as many deadlines as releases";
  let m = ref 0 in
  let bound v =
    if v = min_int then raise Rat.Overflow;
    m := Int.max !m (abs v)
  in
  Array.iter bound release;
  Array.iter bound deadline;
  ignore (Grid.add_le (Grid.mul_le 4 !m) (Grid.mul_le (Array.length release + 1) tau))

(* Seeded with a constant job (static data, never young), for the
   reason [Grid.map_rows] gives. *)
let engine_jobs ~release ~deadline =
  let jobs = Array.make (Array.length release) { Engine.id = 0; release = 0; deadline = 0 } in
  Array.iteri (fun i r -> jobs.(i) <- { Engine.id = i; release = r; deadline = deadline.(i) }) release;
  jobs

(* The grid the jobs need on their own: the lcm of the reduced
   denominators of [tau / scale] and of every release and deadline —
   [scale] itself for a rational instance, a divisor of it for jobs
   cut from a larger shop. *)
let own_grid ~scale ~tau ~release ~deadline =
  let cover l v = Grid.lcm l (scale / Grid.gcd (abs v) scale) in
  Array.fold_left cover (Array.fold_left cover (cover 1 tau) release) deadline

let schedule_grid ~scale ~tau ~release ~deadline =
  let n = Array.length release in
  if n = 0 then Ok [||]
  else begin
    check_bound ~tau ~release ~deadline;
    let fields =
      if Obs.enabled () then
        [ ("jobs", Obs.Int n); ("grid", Obs.Int (own_grid ~scale ~tau ~release ~deadline)) ]
      else []
    in
    Obs.span "single_machine.schedule" ~fields (fun () ->
        let jobs = engine_jobs ~release ~deadline in
        let core = Engine.compute_core ~tau jobs in
        let rat v = Obs.Str (Rat.to_string (Rat.make v scale)) in
        if Obs.enabled () then begin
          match core with
          | Engine.Infeasible_at r ->
              Obs.event "single_machine.infeasible_window" ~fields:[ ("release", rat r) ]
          | Engine.Feasible_regions iset ->
              Obs.event "single_machine.regions"
                ~fields:[ ("count", Obs.Int (Engine.Iset.cardinal iset)) ];
              List.iter
                (fun (left, right) ->
                  Obs.event "single_machine.forbidden_region"
                    ~fields:[ ("left", rat left); ("right", rat right) ])
                (Engine.Iset.to_list iset)
        end;
        match core with
        | Engine.Infeasible_at _ -> Error `Infeasible
        | Engine.Feasible_regions iset -> (
            match Engine.dispatch ~tau ~advance:(Engine.Iset.adjust_up iset) jobs with
            | _, p when p >= 0 -> Error `Infeasible
            | starts, _ -> Ok starts))
  end

let edf_grid_no_regions ~tau ~release ~deadline =
  check_bound ~tau ~release ~deadline;
  match Engine.dispatch ~tau ~advance:Fun.id (engine_jobs ~release ~deadline) with
  | _, p when p >= 0 -> Error (`Deadline_missed p)
  | starts, _ -> Ok starts

(* A rational instance on its own grid: L over tau and every release and
   deadline, and the scaled values. *)
let scale_jobs ~tau (jobs : job array) =
  if Rat.sign tau <= 0 then invalid_arg "Single_machine: tau must be positive";
  let scale =
    Array.fold_left (fun l j -> Grid.lcm_den (Grid.lcm_den l j.release) j.deadline) (Rat.den tau) jobs
  in
  let on = Grid.scaled scale in
  ( scale,
    on tau,
    Array.map (fun j -> on j.release) jobs,
    Array.map (fun j -> on j.deadline) jobs )

let schedule ~tau jobs =
  if Array.length jobs = 0 then Ok [||]
  else
    let scale, tau, release, deadline = scale_jobs ~tau jobs in
    Result.map (Array.map (fun v -> Rat.make v scale)) (schedule_grid ~scale ~tau ~release ~deadline)

let forbidden_regions ~tau jobs =
  let scale, tau, release, deadline = scale_jobs ~tau jobs in
  check_bound ~tau ~release ~deadline;
  match Engine.compute_core ~tau (engine_jobs ~release ~deadline) with
  | Engine.Infeasible_at _ -> Error `Infeasible
  | Engine.Feasible_regions iset ->
      Ok
        (List.map
           (fun (l, r) -> { left = Rat.make l scale; right = Rat.make r scale })
           (Engine.Iset.to_list iset))

let edf_schedule_no_regions ~tau jobs =
  let scale, tau, release, deadline = scale_jobs ~tau jobs in
  match edf_grid_no_regions ~tau ~release ~deadline with
  | Error (`Deadline_missed p) -> Error (`Deadline_missed jobs.(p).id)
  | Ok starts -> Ok (Array.map (fun v -> Rat.make v scale) starts)
