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

   The engine runs on native ints: each entry point first scales the
   instance onto an integer time grid ({!to_grid}, which also proves
   that no int the engine forms can wrap, and refuses the instances
   for which it cannot). *)

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

module Grid = struct
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

(* {1 The integer time grid}

   Let L be the lcm of the denominators of [tau] and of every release
   and deadline.  Scaling every time by L maps the instance onto the
   integers, and every operation the engine performs — add, sub,
   products with a count, comparisons, and the floor division in
   [eval_gk], which is exact when both operands are integers — commutes
   with the scaling.  So the {!Grid} run computes exactly L times the
   values the same sweep and dispatch would compute on rationals,
   provided no int wraps; [Rat.make v L] maps each output back, and
   since rationals are canonical the results are the exact rationals.

   The bound.  In scaled units let [lo]/[hi] be the least/greatest
   release or deadline, [M = max (|lo|, |hi|)], [D = hi - lo <= 2M],
   [T = tau L] and [n] the number of jobs.  Then:
   - leaf values [d - N(d) T] lie in [[lo - nT, hi]], and every
     product with a count is at most [nT] (counts are at most [n]);
   - each region [(s - T, r)] has [s >= r], so every region lies in
     [[lo - T, hi]] and [Lambda] (and each partial sum of [measure])
     is in [[0, D + T]]; the threshold is at most [hi + D + T];
   - a walk [g^k(d)] with [k <= n] loses at most [kT] to steps and at
     most [Lambda] to region hops (each region is crossed once), so
     every [x] and [y] it visits lies in [[lo - (n+1)T - D, hi]] and
     [x - rt] (with [rt] a release) has magnitude at most
     [2D + (n+1)T];
   - every dispatch instant is a release, a region's right endpoint
     (a release) or the previous finish, so starts lie in
     [[lo, hi + (n-1)T]] and finishes are at most [hi + nT].
   Every magnitude the engine forms is therefore at most
   [B = 4M + (n+1)T].  The grid is used when L, the scaled values and
   B are computed without passing [grid_limit = max_int / 2] — a
   further factor of two of headroom — and every step of that check is
   itself overflow-checked, so it cannot wrap.  Otherwise (say, many
   coprime large denominators) the instance is refused with
   {!Rat.Overflow}, the exception the 63-bit rationals raise for values
   that do not fit: the engine never answers from a wrapped int. *)

let grid_limit = max_int / 2

(* Products and sums of non-negative ints, refused past the limit. *)
let mul_le a b = if a <> 0 && b > grid_limit / a then raise Rat.Overflow else a * b
let add_le a b = if a > grid_limit - b then raise Rat.Overflow else a + b
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

type grid = { scale : int; gtau : int; gjobs : Grid.job array }

let to_grid ~tau (jobs : job array) =
  if Rat.sign tau <= 0 then invalid_arg "Single_machine: tau must be positive";
  let lcm l x =
    let d = Rat.den x in
    if l mod d = 0 then l else mul_le (l / gcd l d) d
  in
  let scale = Array.fold_left (fun l j -> lcm (lcm l j.release) j.deadline) (Rat.den tau) jobs in
  let m = ref 0 in
  let on_grid x =
    let v = mul_le (abs (Rat.num x)) (scale / Rat.den x) in
    if v > !m then m := v;
    if Rat.num x < 0 then -v else v
  in
  let gjobs =
    Array.mapi
      (fun i j -> { Grid.id = i; release = on_grid j.release; deadline = on_grid j.deadline })
      jobs
  in
  let gtau = mul_le (Rat.num tau) (scale / Rat.den tau) in
  ignore (add_le (mul_le 4 !m) (mul_le (Array.length jobs + 1) gtau));
  { scale; gtau; gjobs }

let of_grid g v = Rat.make v g.scale

(* The entry points: each is a from-scratch run of the sweep and/or the
   dispatch loop on the instance's grid.  Telemetry always prints the
   rational values. *)

let schedule ~tau jobs =
  if Array.length jobs = 0 then Ok [||]
  else
    let g = to_grid ~tau jobs in
    Obs.span "single_machine.schedule"
      ~fields:[ ("jobs", Obs.Int (Array.length jobs)); ("grid", Obs.Int g.scale) ]
      (fun () ->
        let core = Grid.compute_core ~tau:g.gtau g.gjobs in
        let rat v = Obs.Str (Rat.to_string (of_grid g v)) in
        if Obs.enabled () then begin
          match core with
          | Grid.Infeasible_at r ->
              Obs.event "single_machine.infeasible_window" ~fields:[ ("release", rat r) ]
          | Grid.Feasible_regions iset ->
              Obs.event "single_machine.regions"
                ~fields:[ ("count", Obs.Int (Grid.Iset.cardinal iset)) ];
              List.iter
                (fun (left, right) ->
                  Obs.event "single_machine.forbidden_region"
                    ~fields:[ ("left", rat left); ("right", rat right) ])
                (Grid.Iset.to_list iset)
        end;
        match core with
        | Grid.Infeasible_at _ -> Error `Infeasible
        | Grid.Feasible_regions iset -> (
            match Grid.dispatch ~tau:g.gtau ~advance:(Grid.Iset.adjust_up iset) g.gjobs with
            | _, p when p >= 0 -> Error `Infeasible
            | starts, _ -> Ok (Array.map (of_grid g) starts)))

let forbidden_regions ~tau jobs =
  let g = to_grid ~tau jobs in
  match Grid.compute_core ~tau:g.gtau g.gjobs with
  | Grid.Infeasible_at _ -> Error `Infeasible
  | Grid.Feasible_regions iset ->
      Ok
        (List.map
           (fun (l, r) -> { left = of_grid g l; right = of_grid g r })
           (Grid.Iset.to_list iset))

let edf_schedule_no_regions ~tau jobs =
  let g = to_grid ~tau jobs in
  match Grid.dispatch ~tau:g.gtau ~advance:Fun.id g.gjobs with
  | _, p when p >= 0 -> Error (`Deadline_missed jobs.(p).id)
  | starts, _ -> Ok (Array.map (of_grid g) starts)
