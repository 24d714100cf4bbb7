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
  List.fold_left
    (fun s (l, rt) -> Interval_set.add s ~left:(q l) ~right:(q rt))
    Interval_set.empty pairs

let check_invariants s =
  (* Sorted by left endpoint, pairwise disjoint (touching allowed). *)
  let rec go = function
    | (l1, r1) :: ((l2, _) :: _ as rest) ->
        Alcotest.(check bool) "interval nonempty" true Rat.(l1 < r1);
        Alcotest.(check bool) "sorted and disjoint" true Rat.(r1 <= l2);
        go rest
    | [ (l, rt) ] -> Alcotest.(check bool) "interval nonempty" true Rat.(l < rt)
    | [] -> ()
  in
  go (Interval_set.to_list s)

let test_iset_merge_overlap () =
  let s = iset_of [ ("0", "2"); ("1", "3"); ("5", "6") ] in
  check_invariants s;
  Alcotest.(check int) "overlap coalesced" 2 (Interval_set.cardinal s);
  Alcotest.(check (list (pair string string))) "merged span"
    [ ("0", "3"); ("5", "6") ]
    (List.map
       (fun (l, rt) -> (Rat.to_string l, Rat.to_string rt))
       (Interval_set.to_list s))

let test_iset_touching_not_merged () =
  (* Open intervals: sharing an endpoint leaves that point startable, so
     (0,1) and (1,2) must stay separate and 1 must not be a member. *)
  let s = iset_of [ ("0", "1"); ("1", "2") ] in
  check_invariants s;
  Alcotest.(check int) "kept separate" 2 (Interval_set.cardinal s);
  Alcotest.(check bool) "shared endpoint not inside" false (Interval_set.mem s (q "1"));
  check_rat "adjust_up fixes shared endpoint" (q "1") (Interval_set.adjust_up s (q "1"));
  Alcotest.(check bool) "interior is inside" true (Interval_set.mem s (q "0.5"))

let test_iset_boundaries () =
  let s = iset_of [ ("1", "3") ] in
  Alcotest.(check bool) "left endpoint outside" false (Interval_set.mem s (q "1"));
  Alcotest.(check bool) "right endpoint outside" false (Interval_set.mem s (q "3"));
  check_rat "adjust_up from interior" (q "3") (Interval_set.adjust_up s (q "2"));
  check_rat "adjust_up from endpoint" (q "1") (Interval_set.adjust_up s (q "1"));
  check_rat "adjust_down from interior" (q "1") (Interval_set.adjust_down s (q "2"));
  check_rat "adjust_down from endpoint" (q "3") (Interval_set.adjust_down s (q "3"));
  check_rat "adjust_up outside" (q "5") (Interval_set.adjust_up s (q "5"));
  let empty = Interval_set.empty in
  Alcotest.(check bool) "empty is empty" true (Interval_set.is_empty empty);
  check_rat "adjust on empty" (q "2") (Interval_set.adjust_up empty (q "2"))

let test_iset_degenerate_add () =
  let s = Interval_set.add Interval_set.empty ~left:(q "2") ~right:(q "2") in
  Alcotest.(check bool) "empty interval ignored" true (Interval_set.is_empty s);
  let s = Interval_set.add Interval_set.empty ~left:(q "3") ~right:(q "2") in
  Alcotest.(check bool) "inverted interval ignored" true (Interval_set.is_empty s)

let pairs_of s =
  List.map (fun (l, rt) -> (Rat.to_string l, Rat.to_string rt)) (Interval_set.to_list s)

let test_iset_remove () =
  let s = iset_of [ ("0", "4"); ("6", "8") ] in
  (* Closed subtraction: the removed endpoints do not survive, so (0,4)
     splits into (0,1) and (2,4). *)
  let split = Interval_set.remove s ~left:(q "1") ~right:(q "2") in
  check_invariants split;
  Alcotest.(check (list (pair string string))) "interior removal splits"
    [ ("0", "1"); ("2", "4"); ("6", "8") ]
    (pairs_of split);
  (* A point removal splits the interval containing it. *)
  let point = Interval_set.remove s ~left:(q "7") ~right:(q "7") in
  check_invariants point;
  Alcotest.(check (list (pair string string))) "point removal splits"
    [ ("0", "4"); ("6", "7"); ("7", "8") ]
    (pairs_of point);
  (* Disjoint removal is the identity; a covering removal empties. *)
  Alcotest.(check (list (pair string string))) "disjoint removal is identity"
    (pairs_of s)
    (pairs_of (Interval_set.remove s ~left:(q "4") ~right:(q "6")));
  Alcotest.(check bool) "covering removal empties" true
    (Interval_set.is_empty (Interval_set.remove s ~left:(q "-1") ~right:(q "9")));
  check_rat "measure after split" (q "5")
    (Interval_set.measure split)

(* Naive model: a list of open intervals with fold-based queries —
   exactly the representation the pre-rewrite engine used. *)
let model_mem intervals x =
  List.exists (fun (l, rt) -> Rat.(l < x) && Rat.(x < rt)) intervals

let model_add intervals (l, rt) =
  if Rat.(l >= rt) then intervals
  else
    let overlapping, rest =
      List.partition (fun (l', r') -> Rat.(l' < rt) && Rat.(l < r')) intervals
    in
    let l = List.fold_left (fun acc (l', _) -> Rat.min acc l') l overlapping in
    let rt = List.fold_left (fun acc (_, r') -> Rat.max acc r') rt overlapping in
    List.sort (fun (a, _) (b, _) -> Rat.compare a b) ((l, rt) :: rest)

let arb_interval =
  QCheck.map
    (fun (a, b) -> if Rat.(a <= b) then (a, b) else (b, a))
    QCheck.(
      pair
        (QCheck.make (rat_gen ~den:4 ~lo:0 ~hi:12 ()))
        (QCheck.make (rat_gen ~den:4 ~lo:0 ~hi:12 ())))

let prop_iset_matches_model =
  QCheck.Test.make ~name:"interval set agrees with naive list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 25) arb_interval)
    (fun intervals ->
      let s =
        List.fold_left
          (fun s (l, rt) -> Interval_set.add s ~left:l ~right:rt)
          Interval_set.empty intervals
      in
      let model = List.fold_left model_add [] intervals in
      (* Same membership on a probe grid covering all endpoints and
         midpoints, and same adjusted values. *)
      let probes =
        List.concat_map
          (fun (l, rt) ->
            [ l; rt; Rat.div_int (Rat.add l rt) 2; Rat.sub l (Rat.make 1 8); Rat.add rt (Rat.make 1 8) ])
          intervals
      in
      List.for_all
        (fun x ->
          Interval_set.mem s x = model_mem model x
          && Rat.equal (Interval_set.adjust_up s x)
               (match List.find_opt (fun (l, rt) -> Rat.(l < x) && Rat.(x < rt)) model with
                | Some (_, rt) -> rt
                | None -> x)
          && Rat.equal (Interval_set.adjust_down s x)
               (match List.find_opt (fun (l, rt) -> Rat.(l < x) && Rat.(x < rt)) model with
                | Some (l, _) -> l
                | None -> x))
        probes
      (* And the cardinality matches: merged runs collapse identically. *)
      && Interval_set.cardinal s = List.length model)

(* Closed-interval subtraction in the list model: each interval keeps
   its pieces strictly below [l] and strictly above [r]. *)
let model_remove intervals (l, rt) =
  List.concat_map
    (fun (l', r') ->
      List.filter
        (fun (a, b) -> Rat.(a < b))
        [ (l', Rat.min r' l); (Rat.max l' rt, r') ])
    intervals

let prop_iset_remove_matches_model =
  QCheck.Test.make ~name:"interval set add/remove agrees with naive model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 30) (pair bool arb_interval))
    (fun ops ->
      let s, model =
        List.fold_left
          (fun (s, model) (is_add, (l, rt)) ->
            if is_add then (Interval_set.add s ~left:l ~right:rt, model_add model (l, rt))
            else (Interval_set.remove s ~left:l ~right:rt, model_remove model (l, rt)))
          (Interval_set.empty, []) ops
      in
      let pairs = Interval_set.to_list s in
      List.length pairs = List.length model
      && List.for_all2
           (fun (a, b) (c, d) -> Rat.equal a c && Rat.equal b d)
           pairs model
      && Rat.equal (Interval_set.measure s)
           (List.fold_left (fun acc (l, rt) -> Rat.add acc (Rat.sub rt l)) Rat.zero model))

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
    Alcotest.test_case "closed-interval removal" `Quick test_iset_remove;
    to_alcotest prop_iset_matches_model;
    to_alcotest prop_iset_remove_matches_model;
  ]
