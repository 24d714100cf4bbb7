module Rat = E2e_rat.Rat

type rat = Rat.t

(* {1 Why no int wraps}

   Scaling every time of a shop by L, the lcm of its denominators, maps
   it onto the integers, and every operation the algorithms perform —
   add, sub, max, comparisons, products with a count, and the
   single-machine engine's floor division, which is exact when both
   operands are integers — commutes with the scaling.  So an int run
   computes exactly L times the rational run's values, provided no int
   wraps; [Rat.make v L] maps each output back, and since rationals are
   canonical the results are the exact rationals.  The two checks below
   say why no int wraps.

   {2 The single-machine engine: B = 4M + (n+1)T}

   For [n] equal-length jobs in scaled units let [lo]/[hi] be the
   least/greatest release or deadline, [M = max (|lo|, |hi|)],
   [D = hi - lo <= 2M] and [T] the job length.  Then:
   - leaf values [d - N(d) T] lie in [[lo - nT, hi]], and every product
     with a count is at most [nT] (counts are at most [n]);
   - each forbidden region [(s - T, r)] has [s >= r], so every region
     lies in [[lo - T, hi]] and [Lambda] (and each partial sum of the
     region measure) is in [[0, D + T]]; the threshold is at most
     [hi + D + T];
   - a walk [g^k(d)] with [k <= n] loses at most [kT] to steps and at
     most [Lambda] to region hops (each region is crossed once), so
     every [x] and [y] it visits lies in [[lo - (n+1)T - D, hi]] and
     [x - rt] (with [rt] a release) has magnitude at most
     [2D + (n+1)T];
   - every dispatch instant is a release, a region's right endpoint (a
     release) or the previous finish, so starts lie in
     [[lo, hi + (n-1)T]] and finishes are at most [hi + nT].
   Every magnitude the engine forms is therefore at most
   [B = 4M + (n+1)T].  [Single_machine] checks B against [limit] on its
   int jobs, with every step overflow-checked.

   {2 A flow shop}

   A shop is admitted when L and every scaled release, deadline and
   processing time stay within [limit = max_int / 2], and so does [P],
   the sum over stages of the longest processing time on the stage — at
   least every task's total, and exactly an inflated task's total.
   Every step of that check is itself overflow-checked, so it cannot
   wrap.  Then no int of the flow-shop pipeline wraps, because every
   value is a sum of at most two terms of magnitude at most [limit]
   (and [2 limit < max_int]), and every value that is carried further
   is first checked against [limit] again:
   - effective windows [r_i + sum_{j<b} tau_ij], [d_i - sum_{j>b}
     tau_ij] and [d_i - (m-1) tau] add a time to a partial sum of at
     most [P]; the single-machine engine then checks its bound B on
     them, so everything it forms, its starts included, is at most
     [B <= limit];
   - propagation adds or subtracts a partial sum of (possibly inflated)
     stage times to such a start; [check_starts] refuses any start past
     [limit] — Algorithm H runs it on the propagated starts before
     anything reads them, and [Schedule.of_grid] runs it on every start
     it is given;
   - compaction (Algorithm C) writes each start as the max of a release
     and a start plus one stage time, and refuses a start past [limit]
     as it writes it (no start falls below the least of the releases
     and the first start, so only the upper side can pass);
   - the checker and the reply writer add one stage time to a start
     that [Schedule.of_grid] or [of_schedule] admitted.
   A shop or schedule past these checks is refused with {!Rat.Overflow}:
   no answer is ever computed from a wrapped int.

   {2 Before any solve: request literals and the candidate's fit}

   The service's request scanner ([E2e_serve.Protocol]) refuses any
   literal with more than 18 significant digits in its numerator, a
   denominator past 10^9 (at most 9 decimal places) or a magnitude of
   10^12 or more.  So every literal is a rational with numerator below
   10^18 < [limit] and denominator at most 10^9: it fits its own grid,
   and the scanner's digit accumulation stops before it could wrap.
   Whether a whole shop fits depends on L, which no per-literal bound
   caps, so {!fit} decides it for the candidate before anything
   compares, sums or solves its times.  It computes L, the reach
   [R = max (|r_i|, |d_i|)] and P on the grid, each step
   overflow-checked, and then the bound
   [B* = 4 (R + P) + (n+1) P].  B* covers the engine's B on every stage
   that EEDF and Algorithms A and H give it: an effective window adds a
   partial stage sum of at most P to a release or deadline, so
   [M <= R + P], and every job length T (inflated or not) is at most P.
   Two consequences:
   - a shop that passes {!fit} passes {!of_shop}, whose checks are
     steps of {!fit}'s, and [Rat.compare] on two of its times never
     overflows: its cross products are the times scaled to the lcm of
     the two denominators, which divides L;
   - an integer shop (L = 1) of n tasks on m stages has [R < 10^12] and
     [P < m 10^12], so [B* < 10^12 (m (n+5) + 4)]: every integer shop
     with [m (n+5) + 4 <= 2.3 10^6] fits — a four-stage shop of up to
     574,994 tasks, say.  Only fractions (L > 1) or shops that large
     can fail the check. *)

let limit = max_int / 2

(* Below 2^30 both factors of a product, it stays below 2^60 < limit:
   no division needed to check it. *)
let small v = v < 0x4000_0000

let mul_le a b =
  if small a && small b then a * b
  else if a <> 0 && b > limit / a then raise Rat.Overflow
  else a * b

let add_le a b = if a > limit - b then raise Rat.Overflow else a + b
let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm l d = if l mod d = 0 then l else mul_le (l / gcd l d) d
let lcm_den l x = lcm l (Rat.den x)

let scaled l x =
  let d = Rat.den x in
  if l mod d <> 0 then invalid_arg "Grid.scaled: the denominator does not divide the scale";
  let v = mul_le (abs (Rat.num x)) (l / d) in
  if Rat.num x < 0 then -v else v

let rescale l x = Rat.num x * (l / Rat.den x)

let check_starts starts =
  Array.iter (Array.iter (fun s -> if s > limit || s < -limit then raise Rat.Overflow)) starts

type t = {
  shop : Recurrence_shop.t;
  scale : int;
  release : int array;
  deadline : int array;
  tau : int array array;
  max_tau : int array;
}

(* [Array.map f a] for row-valued [f], seeded with the empty row: past
   256 elements [Array.map] seeds the result with the fresh first row,
   and [caml_make_vect] then forces a minor collection — stopping every
   domain — to promote it. *)
let map_rows f a =
  let rows = Array.make (Array.length a) [||] in
  Array.iteri (fun i x -> rows.(i) <- f x) a;
  rows

let build (shop : Recurrence_shop.t) (times : rat array array) =
  let tasks = shop.Recurrence_shop.tasks in
  let scale =
    Array.fold_left
      (fun l (t : Task.t) ->
        Array.fold_left lcm_den (lcm_den (lcm_den l t.release) t.deadline) t.proc_times)
      1 tasks
  in
  let scale = Array.fold_left (Array.fold_left lcm_den) scale times in
  let on_grid = scaled scale in
  let release = Array.map (fun (t : Task.t) -> on_grid t.release) tasks in
  let deadline = Array.map (fun (t : Task.t) -> on_grid t.deadline) tasks in
  let tau = map_rows (fun (t : Task.t) -> Array.map on_grid t.proc_times) tasks in
  let gtimes = map_rows (Array.map on_grid) times in
  let max_tau = Array.make (Visit.length shop.Recurrence_shop.visit) 0 in
  Array.iter (Array.iteri (fun j v -> max_tau.(j) <- Int.max max_tau.(j) v)) tau;
  ignore (Array.fold_left add_le 0 max_tau);
  ({ shop; scale; release; deadline; tau; max_tau }, gtimes)

let of_shop shop = fst (build shop [||])
let of_schedule = build
let to_rat g v = Rat.make v g.scale

type misfit = Scale | Bound

(* The running state of {!fit}'s pass: L, the largest scaled release
   or deadline magnitude, the stage maxima and the task count, all on
   the grid of scale L.  A committed shop keeps the extent of its last
   fit, so the next candidate's pass resumes from it and walks only the
   new tasks. *)
type extent = { escale : int; ereach : int; estage_max : int array; etasks : int }

(* One pass over the candidate's times, resumed from [e].  L grows as
   denominators arrive; the maxima found so far are rescaled by L'/L
   when it does, so each time is scaled once, by the L of its moment,
   and ends on the final grid.  Resuming is the same pass: a fit over
   the committed tasks followed by the new ones reaches the same state
   after the committed ones as the fit that built [e].  Times past the
   stage maxima of a task (a task of the wrong arity, which the caller
   refuses on its own) still widen L. *)
let extend e iter =
  let scale = ref e.escale and reach = ref e.ereach and tasks = ref e.etasks in
  let stage_max = Array.copy e.estage_max in
  let stages = Array.length stage_max in
  let grow d =
    let l = lcm !scale d in
    let f = l / !scale in
    reach := mul_le !reach f;
    Array.iteri (fun j v -> stage_max.(j) <- mul_le v f) stage_max;
    scale := l
  in
  (* One division per time: [L / d], and [d] divides L exactly when the
     quotient multiplies back to L. *)
  let on_grid x =
    let d = Rat.den x and v = abs (Rat.num x) in
    let q = !scale / d in
    if q * d = !scale then mul_le v q
    else begin
      grow d;
      mul_le v (!scale / d)
    end
  in
  let task release deadline taus =
    incr tasks;
    reach := Int.max !reach (Int.max (on_grid release) (on_grid deadline));
    for j = 0 to Array.length taus - 1 do
      let v = on_grid taus.(j) in
      if j < stages then stage_max.(j) <- Int.max stage_max.(j) v
    done
  in
  match iter task with
  | exception Rat.Overflow -> Error Scale
  | () -> (
      match Array.fold_left add_le 0 stage_max with
      | exception Rat.Overflow -> Error Scale
      | p -> (
          match add_le (mul_le 4 (add_le !reach p)) (mul_le (!tasks + 1) p) with
          | _ ->
              Ok { escale = !scale; ereach = !reach; estage_max = stage_max; etasks = !tasks }
          | exception Rat.Overflow -> Error Bound))

let extent ~stages iter =
  extend { escale = 1; ereach = 0; estage_max = Array.make stages 0; etasks = 0 } iter

let fit ~stages iter = Result.map ignore (extent ~stages iter)
