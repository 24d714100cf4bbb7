(* Pairwise-disjoint open intervals (lefts.(i), rights.(i)) with
   left < right, sorted by left endpoint, kept as two parallel int
   arrays.  Two intervals may share an endpoint (the shared point is
   outside both); they are then kept separate, never coalesced, so the
   set represents exactly the union of open intervals it was built
   from.  Disjointness gives the key query invariant: an interval's own
   endpoints are never strictly inside any other interval, so one
   binary-search step settles [adjust_up]/[adjust_down]. *)
type t = { lefts : int array; rights : int array }

let empty = { lefts = [||]; rights = [||] }
let cardinal t = Array.length t.lefts
let is_empty t = cardinal t = 0
let to_list t = List.init (cardinal t) (fun i -> (t.lefts.(i), t.rights.(i)))
let right t i = t.rights.(i)

(* Index of the rightmost interval with left < x, or -1. *)
let rightmost_left_below t x =
  let lo = ref (-1) and hi = ref (cardinal t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.lefts.(mid) < x then lo := mid else hi := mid - 1
  done;
  !lo

(* The interval strictly containing x, if any.  Only the rightmost
   interval with left < x can contain x: any earlier interval ends at
   or before that one's left endpoint. *)
let containing t x =
  let i = rightmost_left_below t x in
  if i >= 0 && x < t.rights.(i) then i else -1

let mem t x = containing t x >= 0

let adjust_up t x =
  let i = containing t x in
  if i < 0 then x else t.rights.(i)

let adjust_down t x =
  let i = containing t x in
  if i < 0 then x else t.lefts.(i)

let measure t =
  let acc = ref 0 in
  for i = 0 to cardinal t - 1 do
    acc := !acc + (t.rights.(i) - t.lefts.(i))
  done;
  !acc

let add t ~left ~right =
  if left >= right then t
  else begin
    (* Strict overlap only: an interval touching [left,right] at a bare
       endpoint stays separate (open intervals exclude their endpoints). *)
    let n = cardinal t in
    (* Intervals are sorted, so the overlapping ones form a contiguous
       run [lo, hi).  First index not entirely to the left of [left]: *)
    let lo = ref 0 in
    while !lo < n && t.rights.(!lo) <= left do incr lo done;
    let hi = ref !lo in
    let merged_left = ref left and merged_right = ref right in
    while !hi < n && t.lefts.(!hi) < right && left < t.rights.(!hi) do
      merged_left := Int.min !merged_left t.lefts.(!hi);
      merged_right := Int.max !merged_right t.rights.(!hi);
      incr hi
    done;
    let lo = !lo and hi = !hi in
    let splice a v =
      let out = Array.make (n - (hi - lo) + 1) v in
      Array.blit a 0 out 0 lo;
      Array.blit a hi out (lo + 1) (n - hi);
      out
    in
    { lefts = splice t.lefts !merged_left; rights = splice t.rights !merged_right }
  end
