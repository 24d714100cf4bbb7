module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen

type model_class = Eedf | R | A | H | Eedf_fast

let all = [ Eedf; R; A; H; Eedf_fast ]

let name = function
  | Eedf -> "eedf"
  | R -> "r"
  | A -> "a"
  | H -> "h"
  | Eedf_fast -> "eedf-fast"

let of_name = function
  | "eedf" -> Some Eedf
  | "r" -> Some R
  | "a" -> Some A
  | "h" -> Some H
  | "eedf-fast" -> Some Eedf_fast
  | _ -> None

let code = function Eedf -> 0 | R -> 1 | A -> 2 | H -> 3 | Eedf_fast -> 4

(* The feasible_gen helpers never produce a window below the task's total
   processing time, so on their own they only exercise the feasible and
   contention-infeasible paths.  Cut one task's window about a quarter of
   the time to reach the trivially-infeasible branches as well. *)
let tighten g (fs : Flow_shop.t) =
  if Prng.int g 4 <> 0 then fs
  else begin
    let victim = Prng.int g (Flow_shop.n_tasks fs) in
    let u = Prng.rat_uniform g ~den:4 Rat.zero Rat.one in
    let tasks =
      Array.map
        (fun (t : Task.t) ->
          if t.id <> victim then t
          else
            let deadline = Rat.add t.release (Rat.mul u (Rat.sub t.deadline t.release)) in
            Task.make ~id:t.id ~release:t.release ~deadline ~proc_times:t.proc_times)
        fs.tasks
    in
    Flow_shop.make ~processors:fs.processors tasks
  end

(* Shapes stay inside the oracle guards: branch and bound accepts up to 8
   tasks on 6 processors, the permutation oracle up to 10 tasks. *)
let small_shape g = (1 + Prng.int g 5, 1 + Prng.int g 4, 1 + Prng.int g 5)

let identical g =
  let n, m, window = small_shape g in
  let tau = Prng.rat_uniform g ~den:2 (Rat.make 1 2) (Rat.of_int 2) in
  tighten g (Feasible_gen.identical_length g ~n ~m ~tau ~window)

let homogeneous g =
  let n, m, window = small_shape g in
  tighten g (Feasible_gen.homogeneous g ~n ~m ~max_tau:2 ~window)

let arbitrary g =
  let n, m, window = small_shape g in
  tighten g (Feasible_gen.arbitrary g ~n ~m ~max_tau:2 ~window)

(* Single-loop recurrence shops inside Exhaustive_recurrence's guards:
   at most 4 tasks, 7 stages, 24 deadline slots, identical unit times
   and a common release. *)
let recurrent g =
  let visit = Feasible_gen.single_loop_visit g ~max_stages:7 in
  let k = Visit.length visit in
  let n = 1 + Prng.int g 4 in
  let tau = if Prng.bool g then Rat.one else Rat.make 1 2 in
  let release = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int 2) in
  let tasks =
    Array.init n (fun id ->
        (* Slots below [k] are deliberately reachable: such a task cannot
           finish even alone, which must make Algorithm R and the oracle
           agree on infeasibility. *)
        let slots = Stdlib.max 1 (k - 2 + Prng.int g (k + 6)) in
        let jitter =
          match Prng.int g 3 with
          | 0 -> Rat.zero
          | 1 -> Rat.mul tau (Rat.make 1 4)
          | _ -> Rat.mul tau (Rat.make 1 2)
        in
        let deadline = Rat.add release (Rat.add (Rat.mul_int tau slots) jitter) in
        Task.make ~id ~release ~deadline ~proc_times:(Array.make k tau))
  in
  Recurrence_shop.make ~visit tasks

(* The differential class has no exhaustive oracle to stay inside, so it
   can afford real contention: up to 40 tasks fighting over windows a few
   jobs wide, which is where the engine's heap order and interval merges
   see interesting traffic. *)
let identical_contended g =
  let n = 1 + Prng.int g 40 in
  let m = 1 + Prng.int g 4 in
  let window = 1 + Prng.int g 8 in
  let tau = Prng.rat_uniform g ~den:2 (Rat.make 1 2) (Rat.of_int 2) in
  tighten g (Feasible_gen.identical_length g ~n ~m ~tau ~window)

(* {2 Draws at the edge of the single-machine engine's integer grid}

   The engine runs on native ints when every time, scaled by the lcm L
   of the denominators, keeps B = 4M + (n+1)T within max_int / 2, where
   M is the largest scaled release or deadline magnitude and T the
   scaled tau; otherwise it refuses the instance with [Rat.Overflow]
   (see [E2e_core.Single_machine]).  These draws give releases one
   large prime denominator and deadlines another (moving each release
   earlier and each deadline later by a sliver), then shift the whole
   instance by the integer offset that puts B of the EEDF reduction
   just under the limit (the grid runs on 60-bit magnitudes) or just
   over it (the engine refuses).  With only two large primes no
   denominator the scan-based reference forms exceeds L, so its
   magnitudes stay near 2^60 and it answers both exactly. *)

let release_primes = [| 1_048_573; 1_048_571; 1_048_559; 1_048_549 |]
let deadline_primes = [| 1_048_583; 1_048_589; 1_048_601; 1_048_609 |]
let grid_limit = max_int / 2
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let edge_of_grid g ~over =
  let fs = identical_contended g in
  let tau = Option.get (Flow_shop.is_identical_length fs) in
  let p = release_primes.(Prng.int g (Array.length release_primes)) in
  let q = deadline_primes.(Prng.int g (Array.length deadline_primes)) in
  let shift k (t : Task.t) =
    let k = Rat.of_int k in
    Task.make ~id:t.id
      ~release:Rat.(t.release + k - make 1 p)
      ~deadline:Rat.(t.deadline + k + make 1 q)
      ~proc_times:t.proc_times
  in
  let tasks = Array.map (shift 0) fs.tasks in
  (* The EEDF reduction's values: releases, and deadlines less the
     m - 1 downstream stages.  The offset [k] dwarfs every one of them,
     so the largest scaled magnitude under it is [k L + m0]. *)
  let values =
    Array.concat
      [
        Array.map (fun (t : Task.t) -> t.release) tasks;
        Array.map
          (fun (t : Task.t) -> Rat.sub t.deadline (Rat.mul_int tau (fs.processors - 1)))
          tasks;
      ]
  in
  let l =
    Array.fold_left
      (fun l x ->
        let d = Rat.den x in
        l / gcd l d * d)
      (Rat.den tau) values
  in
  let scaled x = Rat.num x * (l / Rat.den x) in
  let m0 = Array.fold_left (fun m x -> Stdlib.max m (scaled x)) 0 values in
  let n = Array.length tasks in
  (* The largest offset with 4 (k L + m0) + (n + 1) T <= limit. *)
  let k = (grid_limit - (4 * m0) - ((n + 1) * scaled tau)) / (4 * l) in
  let k = if over then k + 1 else k in
  Flow_shop.make ~processors:fs.processors (Array.map (shift k) fs.tasks)

(* Half the draws are the contended ones above; a quarter each sit just
   under and just over the edge of the grid. *)
let identical_large g =
  match Prng.int g 4 with
  | 0 -> edge_of_grid g ~over:false
  | 1 -> edge_of_grid g ~over:true
  | _ -> identical_contended g

let instance g = function
  | Eedf -> Recurrence_shop.of_traditional (identical g)
  | R -> recurrent g
  | A -> Recurrence_shop.of_traditional (homogeneous g)
  | H -> Recurrence_shop.of_traditional (arbitrary g)
  | Eedf_fast -> Recurrence_shop.of_traditional (identical_large g)
