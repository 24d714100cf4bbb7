module Rat = E2e_rat.Rat

(* Sorted array of pairwise-disjoint open intervals (left, right) with
   left < right.  Two intervals may share an endpoint (the shared point
   is outside both); they are then kept separate, never coalesced, so
   the set represents exactly the union of open intervals it was built
   from.  Disjointness gives the key query invariant: an interval's own
   endpoints are never strictly inside any other interval, so one
   binary-search step settles [adjust_up]/[adjust_down]. *)
type t = (Rat.t * Rat.t) array

let empty : t = [||]
let is_empty (t : t) = Array.length t = 0
let cardinal (t : t) = Array.length t
let to_list (t : t) = Array.to_list t

(* Index of the rightmost interval with left < x, or -1. *)
let rightmost_left_below (t : t) x =
  let lo = ref (-1) and hi = ref (Array.length t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    let left, _ = t.(mid) in
    if Rat.(left < x) then lo := mid else hi := mid - 1
  done;
  !lo

(* The interval strictly containing x, if any.  Only the rightmost
   interval with left < x can contain x: any earlier interval ends at or
   before that one's left endpoint. *)
let containing (t : t) x =
  let i = rightmost_left_below t x in
  if i < 0 then None
  else
    let _, right = t.(i) in
    if Rat.(x < right) then Some i else None

let mem (t : t) x = containing t x <> None

let adjust_up (t : t) x =
  match containing t x with None -> x | Some i -> snd t.(i)

let adjust_down (t : t) x =
  match containing t x with None -> x | Some i -> fst t.(i)

let get (t : t) i = t.(i)

let measure (t : t) =
  Array.fold_left (fun acc (l, r) -> Rat.add acc (Rat.sub r l)) Rat.zero t

let add (t : t) ~left ~right =
  if Rat.(left >= right) then t
  else begin
    (* Strict overlap only: an interval touching [left,right] at a bare
       endpoint stays separate (open intervals exclude their endpoints). *)
    let n = Array.length t in
    let overlaps (l, r) = Rat.(l < right) && Rat.(left < r) in
    (* Intervals are sorted, so the overlapping ones form a contiguous
       run [lo, hi).  First index not entirely to the left of [left]: *)
    let lo = ref 0 in
    while !lo < n && Rat.(snd t.(!lo) <= left) do incr lo done;
    let hi = ref !lo in
    let merged_left = ref left and merged_right = ref right in
    while !hi < n && overlaps t.(!hi) do
      let l, r = t.(!hi) in
      if Rat.(l < !merged_left) then merged_left := l;
      if Rat.(r > !merged_right) then merged_right := r;
      incr hi
    done;
    let lo = !lo and hi = !hi in
    let out = Array.make (n - (hi - lo) + 1) (left, right) in
    Array.blit t 0 out 0 lo;
    out.(lo) <- (!merged_left, !merged_right);
    Array.blit t hi out (lo + 1) (n - hi);
    out
  end

(* Subtracting an OPEN interval from an open set is not representable
   here ((a, l] is not open), so [remove] subtracts the CLOSED interval
   [left, right]: every open piece of the difference is expressible, and
   for the solver's use (dropping a region ending exactly at a release
   point) the closed semantics is the natural one.  [left = right]
   removes the single point, splitting any interval containing it. *)
let remove (t : t) ~left ~right =
  if Rat.(left > right) then t
  else begin
    let out = ref [] in
    Array.iter
      (fun ((l, r) as iv) ->
        (* The open (l, r) misses the closed [left, right] exactly when
           it lies entirely at or before [left] or at or after [right]. *)
        if Rat.(r <= left) || Rat.(right <= l) then out := iv :: !out
        else begin
          if Rat.(l < left) then out := (l, left) :: !out;
          if Rat.(right < r) then out := (right, r) :: !out
        end)
      t;
    Array.of_list (List.rev !out)
  end
