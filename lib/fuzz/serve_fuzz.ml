module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Protocol = E2e_serve.Protocol

type finding = {
  trial : int;
  index : int;
  request : string;
  batched : string;
  reference : string;
  log : string list;
  shrink_steps : int;
}

type report = { seed : int; trials : int; agreed : int; findings : finding list }

let code = 4

(* ------------------------------------------------------------------ *)
(* Request-log generation: a pure function of the stream.             *)

let gen_instance g =
  let n = 2 + Prng.int g 3 and m = 2 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

(* One task's window tightened below its total processing time: the
   candidate is provably infeasible (negative slack), exercising the
   [Rejected]-with-certificate path. *)
let tighten (shop : Recurrence_shop.t) =
  let tasks =
    Array.mapi
      (fun i (t : Task.t) ->
        if i = 0 then
          let total = Rat.sum_array t.proc_times in
          Task.make ~id:t.id ~release:t.release
            ~deadline:Rat.(add t.release (div_int total 2))
            ~proc_times:t.proc_times
        else t)
      shop.Recurrence_shop.tasks
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* Same instance, tasks relabelled: must hit the canonical cache. *)
let permute g (shop : Recurrence_shop.t) =
  let order = Prng.permutation g (Recurrence_shop.n_tasks shop) in
  let tasks =
    Array.mapi
      (fun p orig ->
        let t = shop.Recurrence_shop.tasks.(orig) in
        Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
      order
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* A hostile task: magnitudes near 2^62 and large pairwise-coprime
   denominators, so the sums and cross products the solvers form
   overflow 63 bits and the request meets the exception boundary.  A
   draw whose own construction overflows falls back to [benign]. *)
let large_primes = [| 1_000_000_007; 998_244_353; 2_147_483_647; 4_294_967_291; 1_000_000_000_039 |]

let hostile_task g ~id ~stages benign =
  let den () = if Prng.int g 3 = 0 then 1 else large_primes.(Prng.int g (Array.length large_primes)) in
  let near_top () = (1 lsl 62) - 1 - Prng.int g (1 lsl 40) in
  let magnitude () =
    match Prng.int g 3 with
    | 0 -> Rat.of_int (near_top ())
    | 1 -> Rat.make (near_top ()) (den ())
    | _ -> Rat.make (1 + Prng.int g (1 lsl 30)) (den ())
  in
  let release = if Prng.int g 2 = 0 then Rat.zero else magnitude () in
  let deadline = magnitude () and proc_times = Array.init stages (fun _ -> magnitude ()) in
  match Task.make ~id ~release ~deadline ~proc_times with
  | t -> t
  | exception (Rat.Overflow | Invalid_argument _) -> benign

(* Replace a share of an instance's tasks with hostile ones. *)
let harden g (shop : Recurrence_shop.t) =
  let stages = Array.length shop.Recurrence_shop.tasks.(0).Task.proc_times in
  Recurrence_shop.make ~visit:shop.visit
    (Array.map
       (fun (t : Task.t) -> if Prng.int g 5 = 0 then hostile_task g ~id:t.id ~stages t else t)
       shop.tasks)

let gen_log g =
  let requests = 6 + Prng.int g 15 in
  let live = ref [] (* (shop, instance), most recent first *) in
  let fresh = ref 0 in
  let fresh_shop () =
    incr fresh;
    Printf.sprintf "s%d" !fresh
  in
  let pick () =
    match !live with [] -> None | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.35 || !live = [] then begin
        let shop = fresh_shop () in
        let instance = gen_instance g in
        let instance = if Prng.int g 4 = 0 then harden g instance else instance in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.50 then begin
        let _, earlier = Option.get (pick ()) in
        let shop = fresh_shop () and instance = permute g earlier in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.57 then
        (* Infeasible by construction: the rejected path. *)
        Admission.Submit { shop = fresh_shop (); instance = tighten (gen_instance g) }
      else if p < 0.62 then
        (* Duplicate name: the request-error path. *)
        let shop, _ = Option.get (pick ()) in
        Admission.Submit { shop; instance = gen_instance g }
      else if p < 0.80 then begin
        let shop, committed = Option.get (pick ()) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let count = 1 + Prng.int g 2 in
        let tasks =
          List.init count (fun _ ->
              let taus =
                Array.init k (fun _ ->
                    Prng.rat_uniform g ~den:100 (Rat.make 1 2) (Rat.of_int 2))
              in
              let total = Rat.sum_array taus in
              let release = Prng.rat_uniform g ~den:100 Rat.zero (Rat.of_int 4) in
              let window = Rat.mul_int total (2 + Prng.int g 3) in
              let benign = Task.make ~id:0 ~release ~deadline:(Rat.add release window) ~proc_times:taus in
              let t = if Prng.int g 5 = 0 then hostile_task g ~id:0 ~stages:k benign else benign in
              (t.Task.release, t.deadline, t.proc_times))
        in
        Admission.Add { shop; tasks }
      end
      else if p < 0.90 then
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        Admission.Query { shop }
      else begin
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        live := List.filter (fun (s, _) -> s <> shop) !live;
        Admission.Drop { shop }
      end)

(* ------------------------------------------------------------------ *)
(* Differential comparison                                            *)

let outcome_sig o = Format.asprintf "%a" Batcher.pp_outcome o

(* Batched, cached, [jobs] domains. *)
let run_batched ~jobs log =
  let config =
    { Batcher.queue_capacity = max 1 (List.length log); batch = 4;
      budget = Admission.Unbounded; jobs; cache_capacity = 64 }
  in
  Batcher.process_log (Batcher.create ~config ()) log

(* Sequential, cache off, one domain: the reference interpreter. *)
let run_reference log =
  let _, replies =
    List.fold_left
      (fun (state, acc) req ->
        let state, reply = Admission.apply state req in
        (state, reply :: acc))
      (Admission.empty, []) log
  in
  Array.of_list (List.rev_map (fun r -> Batcher.Reply r) replies)

(* First index where the two interpreters' replies differ. *)
let mismatch ~jobs log =
  let batched = run_batched ~jobs log and reference = run_reference log in
  let n = Array.length batched in
  let rec go i =
    if i >= n then None
    else
      let b = outcome_sig batched.(i) and r = outcome_sig reference.(i) in
      if String.equal b r then go (i + 1) else Some (i, b, r)
  in
  go 0

(* Greedy deletion: drop any request whose removal preserves the
   disagreement, to a fixpoint (or the step bound). *)
let shrink ~jobs ~max_shrink log =
  let remove i l = List.filteri (fun j _ -> j <> i) l in
  let steps = ref 0 in
  let rec pass log i =
    if !steps >= max_shrink || i >= List.length log then log
    else
      let candidate = remove i log in
      match mismatch ~jobs candidate with
      | Some _ ->
          incr steps;
          pass candidate i
      | None -> pass log (i + 1)
  in
  let rec fix log =
    let log' = pass log 0 in
    if List.length log' < List.length log && !steps < max_shrink then fix log' else log'
  in
  (fix log, !steps)

let run ?(jobs = 1) ?(max_shrink = 1000) ~seed ~trials () =
  let agreed = ref 0 and findings = ref [] in
  for trial = 0 to trials - 1 do
    let g = Prng.of_path [| seed; code; trial |] in
    let log = gen_log g in
    match mismatch ~jobs log with
    | None -> incr agreed
    | Some _ ->
        let log, shrink_steps = shrink ~jobs ~max_shrink log in
        let index, batched, reference =
          match mismatch ~jobs log with
          | Some (i, b, r) -> (i, b, r)
          | None -> assert false (* shrink preserves the disagreement *)
        in
        let rendered = List.map Protocol.render_request log in
        findings :=
          { trial; index; request = List.nth rendered index; batched; reference;
            log = rendered; shrink_steps }
          :: !findings
  done;
  { seed; trials; agreed = !agreed; findings = List.rev !findings }

let pp_finding ppf f =
  Format.fprintf ppf "  trial %d: reply %d disagrees after %d shrink step(s)@." f.trial
    f.index f.shrink_steps;
  Format.fprintf ppf "    request:   %s@." f.request;
  Format.fprintf ppf "    batched:   %s@." f.batched;
  Format.fprintf ppf "    reference: %s@." f.reference;
  Format.fprintf ppf "    log:@.";
  List.iter (fun line -> Format.fprintf ppf "      | %s@." line) f.log

let pp_report ppf r =
  Format.fprintf ppf "serve: %d trials, %d agreed, %d disagreement(s)" r.trials r.agreed
    (List.length r.findings);
  if r.findings <> [] then begin
    Format.pp_print_newline ppf ();
    List.iter (pp_finding ppf) r.findings
  end
