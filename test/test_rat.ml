module Rat = E2e_rat.Rat
open Helpers

let test_normalisation () =
  check_rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  check_rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  check_rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  check_rat "0/7 = 0" Rat.zero (Rat.make 0 7);
  Alcotest.check Alcotest.int "den of 0 is 1" 1 (Rat.den (Rat.make 0 7))

let test_arithmetic () =
  check_rat "1/2 + 1/3" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  check_rat "1/2 - 1/3" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  check_rat "2/3 * 3/4" (Rat.make 1 2) (Rat.mul (Rat.make 2 3) (Rat.make 3 4));
  check_rat "(1/2) / (1/4)" (r 2) (Rat.div (Rat.make 1 2) (Rat.make 1 4));
  check_rat "mul_int" (Rat.make 3 2) (Rat.mul_int (Rat.make 1 2) 3);
  check_rat "div_int" (Rat.make 1 6) (Rat.div_int (Rat.make 1 2) 3)

let test_division_by_zero () =
  Alcotest.check_raises "make _ 0" Rat.Division_by_zero (fun () -> ignore (Rat.make 1 0));
  Alcotest.check_raises "div by zero" Rat.Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero));
  Alcotest.check_raises "inv zero" Rat.Division_by_zero (fun () -> ignore (Rat.inv Rat.zero))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true Rat.(Rat.make 1 3 < Rat.make 1 2);
  Alcotest.(check bool) "-1/2 < 1/3" true Rat.(Rat.make (-1) 2 < Rat.make 1 3);
  check_rat "min" (Rat.make 1 3) (Rat.min (Rat.make 1 3) (Rat.make 1 2));
  check_rat "max" (Rat.make 1 2) (Rat.max (Rat.make 1 3) (Rat.make 1 2));
  Alcotest.(check int) "sign neg" (-1) (Rat.sign (Rat.make (-1) 5));
  Alcotest.(check int) "sign zero" 0 (Rat.sign Rat.zero)

let test_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  Alcotest.(check int) "floor integer" 5 (Rat.floor (r 5));
  Alcotest.(check int) "ceil integer" 5 (Rat.ceil (r 5))

let test_multiples () =
  Alcotest.(check bool) "3/2 multiple of 1/2" true (Rat.is_multiple_of (Rat.make 3 2) (Rat.make 1 2));
  Alcotest.(check bool) "1/3 not multiple of 1/2" false
    (Rat.is_multiple_of (Rat.make 1 3) (Rat.make 1 2))

let test_parse () =
  check_rat "int" (r 42) (q "42");
  check_rat "negative decimal" (Rat.make (-11) 4) (q "-2.75");
  check_rat "fraction" (Rat.make 4 3) (q "4/3");
  check_rat "0.1" (Rat.make 1 10) (q "0.1");
  check_rat "12.5" (Rat.make 25 2) (q "12.5");
  Alcotest.check_raises "garbage" (Invalid_argument "Rat.of_decimal_string: \"x\"") (fun () ->
      ignore (q "x"));
  (* 18 fraction digits still fit; past that 10^digits would wrap, and a
     value past 2^62 would overflow: both are malformed literals. *)
  check_rat "18 fraction digits" (Rat.make 1 1_000_000_000_000_000_000) (q "0.000000000000000001");
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument (Printf.sprintf "Rat.of_decimal_string: %S" s))
        (fun () -> ignore (q s)))
    [ "2.00000000000000000001"; "4611686018427387903.5"; "-4611686018427387904.5" ]

let test_to_string () =
  Alcotest.(check string) "integer" "7" (Rat.to_string (r 7));
  Alcotest.(check string) "fraction" "-3/2" (Rat.to_string (Rat.make 3 (-2)));
  Alcotest.(check string) "extreme fraction"
    (Printf.sprintf "%d/%d" (-max_int) (max_int - 1))
    (Rat.to_string (Rat.make (-max_int) (max_int - 1)));
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Rat.add_int_to_buffer buf n;
      Alcotest.(check string) "int digits" (string_of_int n) (Buffer.contents buf))
    [ 0; 9; 10; -10; 1_000_003; max_int; min_int ];
  Alcotest.(check string) "decimal pp" "2.75" (Format.asprintf "%a" Rat.pp_decimal (q "2.75"))

let test_of_float () =
  check_rat "0.5" (Rat.make 1 2) (Rat.of_float 0.5);
  check_rat "0.553 approx" (q "0.553") (Rat.of_float ~max_den:1000 0.553);
  check_rat "integer float" (r 3) (Rat.of_float 3.0);
  check_rat "negative" (Rat.make (-1) 4) (Rat.of_float (-0.25))

let test_of_float_non_finite () =
  let rejects name x =
    Alcotest.check_raises name (Invalid_argument "Rat.of_float: non-finite input") (fun () ->
        ignore (Rat.of_float x))
  in
  rejects "nan" Float.nan;
  rejects "+inf" Float.infinity;
  rejects "-inf" Float.neg_infinity;
  Alcotest.check_raises "2^62 overflows" Rat.Overflow (fun () -> ignore (Rat.of_float 0x1p62));
  Alcotest.check_raises "-2^63 overflows" Rat.Overflow (fun () ->
      ignore (Rat.of_float (-0x1p63)))

(* The overflow satellite: operations near max_int must raise
   {!Rat.Overflow} rather than silently wrap. *)
let test_overflow () =
  let big = Rat.of_int (max_int - 1) in
  let raises name f = Alcotest.check_raises name Rat.Overflow (fun () -> ignore (f ())) in
  raises "make min_int _" (fun () -> Rat.make min_int 1);
  raises "make _ min_int" (fun () -> Rat.make 1 min_int);
  raises "of_int min_int" (fun () -> Rat.of_int min_int);
  raises "add doubles past max_int" (fun () -> Rat.add big big);
  raises "mul squares past max_int" (fun () -> Rat.mul big big);
  raises "mul_int past max_int" (fun () -> Rat.mul_int big 3);
  raises "add with overflowing common denominator" (fun () ->
      Rat.add (Rat.make 1 (max_int - 1)) (Rat.make 1 (max_int - 2)));
  raises "compare with overflowing cross products" (fun () ->
      Rat.compare (Rat.make (max_int - 1) (max_int - 2)) (Rat.make (max_int - 3) (max_int - 4)));
  (* Near-limit cases that must NOT raise. *)
  check_rat "max_int representable" (Rat.of_int max_int) (Rat.make max_int 1);
  check_rat "big + 1" (Rat.of_int max_int) (Rat.add big Rat.one);
  check_rat "big - big" Rat.zero (Rat.sub big big);
  check_rat "big * 1" big (Rat.mul big Rat.one);
  check_rat "big / big" Rat.one (Rat.div big big);
  (* Denominators sharing a large factor compare over their lcm, whose
     scaled numerators fit although the plain cross-products do not. *)
  let p = 1_000_000_007 and x = (1 lsl 40) + 1 and y = (1 lsl 40) + 3 in
  Alcotest.(check int) "common factor cancels before cross-multiplying"
    (Stdlib.compare (x * 3) (y * 2))
    (Rat.compare (Rat.make x (2 * p)) (Rat.make y (3 * p)));
  (* Opposite signs are decided without cross-multiplying. *)
  Alcotest.(check int) "sign shortcut avoids overflow" 1
    (Rat.compare (Rat.make (max_int - 1) (max_int - 2)) (Rat.make (-(max_int - 3)) (max_int - 4)));
  Alcotest.(check bool) "huge == itself" true (Rat.equal big big)

(* Random near-max_int operands: every operation either returns the
   exact result (checked against floats, which are reliable at this
   coarse tolerance) or raises Overflow — never a silently wrong value. *)
let arb_huge =
  let gen st =
    let magnitude = QCheck.Gen.oneofl [ max_int - 1; max_int / 2; 1 lsl 40; 1 lsl 31 ] st in
    let num = if QCheck.Gen.bool st then magnitude else -magnitude in
    let den = QCheck.Gen.oneofl [ 1; 3; max_int / 3; max_int - 2 ] st in
    Rat.make num den
  in
  QCheck.make ~print:Rat.to_string gen

let prop_overflow_add =
  QCheck.Test.make ~name:"rat huge add: exact or Overflow" ~count:300
    (QCheck.pair arb_huge arb_huge) (fun (a, b) ->
      match Rat.add a b with
      | exception Rat.Overflow -> true
      | c ->
          let expect = Rat.to_float a +. Rat.to_float b in
          Float.abs (Rat.to_float c -. expect) <= 1e-6 *. Float.max 1.0 (Float.abs expect))

let prop_overflow_mul =
  QCheck.Test.make ~name:"rat huge mul: exact or Overflow" ~count:300
    (QCheck.pair arb_huge arb_huge) (fun (a, b) ->
      match Rat.mul a b with
      | exception Rat.Overflow -> true
      | c ->
          let expect = Rat.to_float a *. Rat.to_float b in
          Float.abs (Rat.to_float c -. expect) <= 1e-6 *. Float.max 1.0 (Float.abs expect))

let prop_overflow_compare =
  QCheck.Test.make ~name:"rat huge compare: agrees with floats or Overflow" ~count:300
    (QCheck.pair arb_huge arb_huge) (fun (a, b) ->
      match Rat.compare a b with
      | exception Rat.Overflow -> true
      | c ->
          let fa = Rat.to_float a and fb = Rat.to_float b in
          (* Floats can collapse nearby huge rationals; only check when
             they are far enough apart to be trusted. *)
          if Float.abs (fa -. fb) <= 1e-3 *. Float.max 1.0 (Float.abs fa) then true
          else Stdlib.compare (Stdlib.compare fa fb) 0 = Stdlib.compare c 0)

let test_sum () =
  check_rat "sum list" (Rat.make 11 6) (Rat.sum [ Rat.one; Rat.make 1 2; Rat.make 1 3 ]);
  check_rat "sum empty" Rat.zero (Rat.sum []);
  check_rat "sum array" (r 6) (Rat.sum_array [| r 1; r 2; r 3 |])

(* Field laws on a grid of small rationals. *)
let arb_rat = QCheck.make ~print:Rat.to_string (rat_gen ~den:12 ~lo:(-20) ~hi:20 ())

let prop_add_comm =
  QCheck.Test.make ~name:"rat add commutative" ~count:500 (QCheck.pair arb_rat arb_rat)
    (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"rat add associative" ~count:500
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c))

let prop_mul_distributes =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:500
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_sub_add_inverse =
  QCheck.Test.make ~name:"rat a - b + b = a" ~count:500 (QCheck.pair arb_rat arb_rat)
    (fun (a, b) -> Rat.equal a (Rat.add (Rat.sub a b) b))

let prop_div_mul_inverse =
  QCheck.Test.make ~name:"rat (a/b)*b = a for b<>0" ~count:500 (QCheck.pair arb_rat arb_rat)
    (fun (a, b) ->
      QCheck.assume (not (Rat.is_zero b));
      Rat.equal a (Rat.mul (Rat.div a b) b))

let prop_compare_total =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:500 (QCheck.pair arb_rat arb_rat)
    (fun (a, b) -> Rat.compare a b = -Rat.compare b a)

(* The equal-denominator fast path in [compare] must agree with exact
   Int64 cross-multiplication on every input — including pairs forced
   onto a shared denominator, where the fast path actually fires. *)
let compare_int64 a b =
  Int64.compare
    (Int64.mul (Int64.of_int (Rat.num a)) (Int64.of_int (Rat.den b)))
    (Int64.mul (Int64.of_int (Rat.num b)) (Int64.of_int (Rat.den a)))

let test_compare_equal_den () =
  let chk msg a b =
    Alcotest.(check int) msg (compare_int64 a b) (Rat.compare a b);
    Alcotest.(check int) (msg ^ " (swapped)") (compare_int64 b a) (Rat.compare b a)
  in
  chk "3/7 vs 5/7" (Rat.make 3 7) (Rat.make 5 7);
  chk "-3/7 vs 5/7" (Rat.make (-3) 7) (Rat.make 5 7);
  chk "3/7 vs 3/7" (Rat.make 3 7) (Rat.make 3 7);
  chk "integers" (Rat.of_int 4) (Rat.of_int (-9));
  (* Equal denominators near max_int: cross products would overflow
     (even in Int64), the numerator path must answer anyway. *)
  let d = max_int - 1 in
  Alcotest.(check int) "huge shared denominator" (-1)
    (Stdlib.compare (Rat.compare (Rat.make 3 d) (Rat.make 5 d)) 0);
  check_rat "min on shared grid" (Rat.make 3 7) (Rat.min (Rat.make 5 7) (Rat.make 3 7));
  check_rat "max on shared grid" (Rat.make 5 7) (Rat.max (Rat.make 5 7) (Rat.make 3 7))

let prop_compare_matches_int64 =
  QCheck.Test.make ~name:"rat compare agrees with Int64 cross-multiplication" ~count:1000
    (QCheck.triple arb_rat arb_rat QCheck.bool) (fun (a, b, share_den) ->
      (* Half the pairs are projected onto b's denominator so the
         equal-denominator branch is exercised, not just the general
         one. *)
      let a = if share_den then Rat.make (Rat.num a) (Rat.den b) else a in
      Stdlib.compare (Rat.compare a b) 0 = Stdlib.compare (compare_int64 a b) 0
      && Rat.equal (Rat.min a b) (if compare_int64 a b <= 0 then a else b)
      && Rat.equal (Rat.max a b) (if compare_int64 a b >= 0 then a else b))

let prop_floor_ceil =
  QCheck.Test.make ~name:"rat floor <= x <= ceil, within 1" ~count:500 arb_rat (fun a ->
      let f = Rat.floor a and c = Rat.ceil a in
      Rat.(r f <= a) && Rat.(a <= r c) && c - f <= 1)

let prop_to_float_order =
  QCheck.Test.make ~name:"rat to_float preserves strict order" ~count:500
    (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      if Rat.(a < b) then Rat.to_float a < Rat.to_float b else true)

let suite =
  [
    Alcotest.test_case "normalisation" `Quick test_normalisation;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "comparison" `Quick test_compare;
    Alcotest.test_case "equal-denominator fast path" `Quick test_compare_equal_den;
    Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
    Alcotest.test_case "multiples" `Quick test_multiples;
    Alcotest.test_case "parsing" `Quick test_parse;
    Alcotest.test_case "printing" `Quick test_to_string;
    Alcotest.test_case "of_float" `Quick test_of_float;
    Alcotest.test_case "of_float rejects non-finite" `Quick test_of_float_non_finite;
    Alcotest.test_case "overflow detection" `Quick test_overflow;
    Alcotest.test_case "sums" `Quick test_sum;
    to_alcotest prop_add_comm;
    to_alcotest prop_add_assoc;
    to_alcotest prop_mul_distributes;
    to_alcotest prop_sub_add_inverse;
    to_alcotest prop_div_mul_inverse;
    to_alcotest prop_compare_total;
    to_alcotest prop_compare_matches_int64;
    to_alcotest prop_floor_ceil;
    to_alcotest prop_to_float_order;
    to_alcotest prop_overflow_add;
    to_alcotest prop_overflow_mul;
    to_alcotest prop_overflow_compare;
  ]
