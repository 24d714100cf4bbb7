module Rat = E2e_rat.Rat
module Heap = E2e_ds.Heap
module Interval_set = E2e_ds.Interval_set
open Helpers

(* {1 Heap} *)

let drain_all h =
  let rec go acc = match Heap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_heap_basics () =
  let h = Heap.create ~cmp:Rat.compare in
  Alcotest.(check bool) "fresh heap empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop empty" true (Heap.pop h = None);
  Heap.push h (r 3);
  Heap.push h (r 1);
  Heap.push h (r 2);
  Alcotest.(check int) "length" 3 (Heap.length h);
  check_rat "peek is min" (r 1) (Option.get (Heap.peek h));
  check_rat "pop min" (r 1) (Option.get (Heap.pop h));
  check_rat "next min" (r 2) (Option.get (Heap.pop h));
  Heap.push h (r 0);
  check_rat "push below current min" (r 0) (Option.get (Heap.pop h));
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 60) (QCheck.make (rat_gen ~den:6 ~lo:(-9) ~hi:9 ())))
    (fun xs ->
      let h = Heap.of_list ~cmp:Rat.compare xs in
      let drained = drain_all h in
      List.length drained = List.length xs
      && List.for_all2 Rat.equal (List.sort Rat.compare xs) drained)

(* Interleaving pushes and pops must behave like a sorted multiset:
   every pop returns the minimum of what is currently inside. *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved push/pop matches sorted model" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 80)
        (pair bool (QCheck.make (rat_gen ~den:4 ~lo:(-9) ~hi:9 ()))))
    (fun ops ->
      let h = Heap.create ~cmp:Rat.compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := List.sort Rat.compare (x :: !model);
            true
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some y, m :: rest ->
                model := rest;
                Rat.equal y m
            | Some _, [] | None, _ :: _ -> false)
        ops)

(* A copy is an independent heap: edits to the source must not leak. *)
let test_heap_copy () =
  let h = Heap.of_list ~cmp:Rat.compare [ r 3; r 1; r 2 ] in
  let c = Heap.copy h in
  check_rat "pop source" (r 1) (Option.get (Heap.pop h));
  Heap.push h (r 0);
  Alcotest.(check int) "copy length unchanged" 3 (Heap.length c);
  Alcotest.(check bool) "copy drains original contents" true
    (List.for_all2 Rat.equal [ r 1; r 2; r 3 ] (drain_all c));
  Alcotest.(check bool) "source saw its own edits" true
    (List.for_all2 Rat.equal [ r 0; r 2; r 3 ] (drain_all h))

(* {1 Interval set} *)

let iset_of pairs =
  List.fold_left (fun s (l, rt) -> Interval_set.add s ~left:l ~right:rt) Interval_set.empty pairs

let check_invariants s =
  (* Sorted by left endpoint, pairwise disjoint (touching allowed). *)
  let rec go = function
    | (l1, r1) :: ((l2, _) :: _ as rest) ->
        Alcotest.(check bool) "interval nonempty" true (l1 < r1);
        Alcotest.(check bool) "sorted and disjoint" true (r1 <= l2);
        go rest
    | [ (l, rt) ] -> Alcotest.(check bool) "interval nonempty" true (l < rt)
    | [] -> ()
  in
  go (Interval_set.to_list s)

let intervals = Alcotest.(list (pair int int))

let test_iset_merge_overlap () =
  let s = iset_of [ (0, 2); (1, 3); (5, 6) ] in
  check_invariants s;
  Alcotest.(check int) "overlap coalesced" 2 (Interval_set.cardinal s);
  Alcotest.check intervals "merged span" [ (0, 3); (5, 6) ] (Interval_set.to_list s)

let test_iset_touching_not_merged () =
  (* Open intervals: sharing an endpoint leaves that point startable, so
     (0,2) and (2,4) must stay separate and 2 must not be a member. *)
  let s = iset_of [ (0, 2); (2, 4) ] in
  check_invariants s;
  Alcotest.(check int) "kept separate" 2 (Interval_set.cardinal s);
  Alcotest.(check bool) "shared endpoint not inside" false (Interval_set.mem s 2);
  Alcotest.(check int) "adjust_up fixes shared endpoint" 2 (Interval_set.adjust_up s 2);
  Alcotest.(check bool) "interior is inside" true (Interval_set.mem s 1)

let test_iset_boundaries () =
  let s = iset_of [ (1, 3) ] in
  Alcotest.(check bool) "left endpoint outside" false (Interval_set.mem s 1);
  Alcotest.(check bool) "right endpoint outside" false (Interval_set.mem s 3);
  Alcotest.(check int) "adjust_up from interior" 3 (Interval_set.adjust_up s 2);
  Alcotest.(check int) "adjust_up from endpoint" 1 (Interval_set.adjust_up s 1);
  Alcotest.(check int) "adjust_down from interior" 1 (Interval_set.adjust_down s 2);
  Alcotest.(check int) "adjust_down from endpoint" 3 (Interval_set.adjust_down s 3);
  Alcotest.(check int) "adjust_up outside" 5 (Interval_set.adjust_up s 5);
  let empty = Interval_set.empty in
  Alcotest.(check bool) "empty is empty" true (Interval_set.is_empty empty);
  Alcotest.(check int) "adjust on empty" 2 (Interval_set.adjust_up empty 2)

let test_iset_degenerate_add () =
  let s = Interval_set.add Interval_set.empty ~left:2 ~right:2 in
  Alcotest.(check bool) "empty interval ignored" true (Interval_set.is_empty s);
  let s = Interval_set.add Interval_set.empty ~left:3 ~right:2 in
  Alcotest.(check bool) "inverted interval ignored" true (Interval_set.is_empty s)

(* Naive model: a list of open intervals with fold-based queries —
   exactly the representation the pre-rewrite engine used. *)
let model_find intervals x = List.find_opt (fun (l, rt) -> l < x && x < rt) intervals

let model_add intervals (l, rt) =
  if l >= rt then intervals
  else
    let overlapping, rest = List.partition (fun (l', r') -> l' < rt && l < r') intervals in
    let l = List.fold_left (fun acc (l', _) -> Int.min acc l') l overlapping in
    let rt = List.fold_left (fun acc (_, r') -> Int.max acc r') rt overlapping in
    List.sort compare ((l, rt) :: rest)

(* Even endpoints in [0, 96], so every midpoint and every point one unit
   outside an endpoint is an integer probe. *)
let arb_interval =
  QCheck.map
    (fun (a, b) -> (2 * Int.min a b, 2 * Int.max a b))
    QCheck.(pair (int_bound 48) (int_bound 48))

let prop_iset_matches_model =
  QCheck.Test.make ~name:"interval set agrees with naive list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 25) arb_interval)
    (fun intervals ->
      let s = iset_of intervals in
      let model = List.fold_left model_add [] intervals in
      (* Same membership on a probe grid covering all endpoints and
         midpoints, and same adjusted values. *)
      let probes = List.concat_map (fun (l, rt) -> [ l; rt; (l + rt) / 2; l - 1; rt + 1 ]) intervals in
      List.for_all
        (fun x ->
          let inside = model_find model x in
          Interval_set.mem s x = Option.is_some inside
          && Interval_set.adjust_up s x = Option.fold ~none:x ~some:snd inside
          && Interval_set.adjust_down s x = Option.fold ~none:x ~some:fst inside)
        probes
      (* And the same intervals, merged runs collapsed identically, and
         the same total length. *)
      && Interval_set.to_list s = model
      && Interval_set.measure s = List.fold_left (fun acc (l, rt) -> acc + (rt - l)) 0 model)

let suite =
  [
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap copy is independent" `Quick test_heap_copy;
    to_alcotest prop_heap_sorts;
    to_alcotest prop_heap_interleaved;
    Alcotest.test_case "interval merge on overlap" `Quick test_iset_merge_overlap;
    Alcotest.test_case "touching intervals stay separate" `Quick test_iset_touching_not_merged;
    Alcotest.test_case "open-interval boundaries" `Quick test_iset_boundaries;
    Alcotest.test_case "degenerate adds ignored" `Quick test_iset_degenerate_add;
    to_alcotest prop_iset_matches_model;
  ]
