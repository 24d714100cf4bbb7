(* Shared test utilities. *)

module Rat = E2e_rat.Rat

let rat : Rat.t Alcotest.testable = Alcotest.testable Rat.pp Rat.equal
let check_rat msg expected actual = Alcotest.check rat msg expected actual
let q s = Rat.of_decimal_string s
let r = Rat.of_int

(* QCheck arbitrary for small rationals on a 1/den grid in [lo, hi]. *)
let rat_gen ?(den = 4) ~lo ~hi () =
  QCheck.Gen.map (fun k -> Rat.make k den) (QCheck.Gen.int_range (lo * den) (hi * den))

let to_alcotest = QCheck_alcotest.to_alcotest

(* Substring test for pretty-printer smoke tests. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* A schedule must be feasible; on failure print the violations. *)
let assert_feasible msg s =
  match E2e_schedule.Schedule.check s with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "%s: infeasible schedule:@ %a" msg
        (Format.pp_print_list E2e_schedule.Schedule.pp_violation)
        vs

(* A random shop over a random visit sequence (traditional or with
   reused processors) and arbitrary stage starts, so most schedules are
   infeasible.  Starts, releases and processing times mix negative
   values, integers and fractions with multi-digit denominators, whose
   least common multiple stays small enough for exact comparison of
   forward-pass sums; with [huge] a share of the starts sits near
   [max_int] (whose finishes may overflow). *)
let schedule_gen ?(huge = false) () =
  let open QCheck.Gen in
  let small = map2 Rat.make (int_range (-400) 400) (oneofl [ 1; 1; 2; 3; 7; 100; 999 ]) in
  let near_max =
    oneof
      [
        map2 (fun sign off -> Rat.of_int (sign * (max_int - off))) (oneofl [ 1; -1 ])
          (int_range 1_000 1_000_000);
        map2 Rat.make (int_range (max_int - 10_000_000_000) (max_int - 1_000_000_000))
          (oneofl [ 3; 7; 1_000_003 ]);
      ]
  in
  let start = if huge then frequency [ (4, small); (1, near_max) ] else small in
  let positive = map2 Rat.make (int_range 1 400) (oneofl [ 1; 1; 2; 4; 100; 999 ]) in
  int_range 1 5 >>= fun k ->
  int_range 1 k >>= fun m ->
  list_repeat (k - m) (int_bound (m - 1)) >>= fun extra ->
  shuffle_l (List.init m Fun.id @ extra) >>= fun sequence ->
  int_range 0 6 >>= fun n ->
  array_repeat n (triple small positive (array_repeat k positive)) >>= fun params ->
  array_repeat n (array_repeat k start) >|= fun starts ->
  let tasks =
    Array.mapi
      (fun id (release, window, proc_times) ->
        E2e_model.Task.make ~id ~release ~deadline:(Rat.add release window) ~proc_times)
      params
  in
  let visit = E2e_model.Visit.make (Array.of_list sequence) in
  E2e_schedule.Schedule.make (E2e_model.Recurrence_shop.make ~visit tasks) starts
