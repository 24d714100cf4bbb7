module type TIME = sig
  type t

  val zero : t
  val compare : t -> t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
end

module type S = sig
  type time
  type t

  val empty : t
  val is_empty : t -> bool
  val cardinal : t -> int
  val add : t -> left:time -> right:time -> t
  val remove : t -> left:time -> right:time -> t
  val mem : t -> time -> bool
  val adjust_up : t -> time -> time
  val adjust_down : t -> time -> time
  val to_list : t -> (time * time) list
  val right : t -> int -> time
  val rightmost_left_below : t -> time -> int
  val measure : t -> time
end

module Make (T : TIME) = struct
  type time = T.t

  (* Pairwise-disjoint open intervals (lefts.(i), rights.(i)) with
     left < right, sorted by left endpoint, kept as two parallel arrays
     so that a time grid of native ints stays unboxed.  Two intervals
     may share an endpoint (the shared point is outside both); they are
     then kept separate, never coalesced, so the set represents exactly
     the union of open intervals it was built from.  Disjointness gives
     the key query invariant: an interval's own endpoints are never
     strictly inside any other interval, so one binary-search step
     settles [adjust_up]/[adjust_down]. *)
  type t = { lefts : T.t array; rights : T.t array }

  let empty = { lefts = [||]; rights = [||] }
  let cardinal t = Array.length t.lefts
  let is_empty t = cardinal t = 0
  let to_list t = List.init (cardinal t) (fun i -> (t.lefts.(i), t.rights.(i)))
  let right t i = t.rights.(i)
  let lt a b = T.compare a b < 0

  (* Index of the rightmost interval with left < x, or -1. *)
  let rightmost_left_below t x =
    let lo = ref (-1) and hi = ref (cardinal t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if lt t.lefts.(mid) x then lo := mid else hi := mid - 1
    done;
    !lo

  (* The interval strictly containing x, if any.  Only the rightmost
     interval with left < x can contain x: any earlier interval ends at
     or before that one's left endpoint. *)
  let containing t x =
    let i = rightmost_left_below t x in
    if i >= 0 && lt x t.rights.(i) then i else -1

  let mem t x = containing t x >= 0

  let adjust_up t x =
    let i = containing t x in
    if i < 0 then x else t.rights.(i)

  let adjust_down t x =
    let i = containing t x in
    if i < 0 then x else t.lefts.(i)

  let measure t =
    let acc = ref T.zero in
    for i = 0 to cardinal t - 1 do
      acc := T.add !acc (T.sub t.rights.(i) t.lefts.(i))
    done;
    !acc

  let add t ~left ~right =
    if not (lt left right) then t
    else begin
      (* Strict overlap only: an interval touching [left,right] at a bare
         endpoint stays separate (open intervals exclude their endpoints). *)
      let n = cardinal t in
      (* Intervals are sorted, so the overlapping ones form a contiguous
         run [lo, hi).  First index not entirely to the left of [left]: *)
      let lo = ref 0 in
      while !lo < n && not (lt left t.rights.(!lo)) do incr lo done;
      let hi = ref !lo in
      let merged_left = ref left and merged_right = ref right in
      while !hi < n && lt t.lefts.(!hi) right && lt left t.rights.(!hi) do
        if lt t.lefts.(!hi) !merged_left then merged_left := t.lefts.(!hi);
        if lt !merged_right t.rights.(!hi) then merged_right := t.rights.(!hi);
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

  (* Subtracting an OPEN interval from an open set is not representable
     here ((a, l] is not open), so [remove] subtracts the CLOSED interval
     [left, right]: every open piece of the difference is expressible,
     and for the solver's use (dropping a region ending exactly at a
     release point) the closed semantics is the natural one.
     [left = right] removes the single point, splitting any interval
     containing it. *)
  let remove t ~left ~right =
    if lt right left then t
    else begin
      let out = ref [] in
      for i = cardinal t - 1 downto 0 do
        let l = t.lefts.(i) and r = t.rights.(i) in
        (* The open (l, r) misses the closed [left, right] exactly when
           it lies entirely at or before [left] or at or after [right]. *)
        if (not (lt left r)) || not (lt l right) then out := (l, r) :: !out
        else begin
          if lt right r then out := (right, r) :: !out;
          if lt l left then out := (l, left) :: !out
        end
      done;
      let pieces = Array.of_list !out in
      { lefts = Array.map fst pieces; rights = Array.map snd pieces }
    end
end

include Make (E2e_rat.Rat)
