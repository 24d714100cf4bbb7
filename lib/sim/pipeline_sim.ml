module Rat = E2e_rat.Rat
module Periodic_shop = E2e_model.Periodic_shop
module Obs = E2e_obs.Obs
module Heap = E2e_ds.Heap

type policy = [ `Postponed_phases of float array | `Direct_sync ]

type report = {
  end_to_end : float array;
  precedence_violations : int;
  deadline_misses : int;
  requests : int;
}

let eps = 1e-9

(* Completion time per (job, request) for one processor's simulation. *)
let completion_table n_jobs (result : Rm_sim.result) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (c : Rm_sim.completion) -> Hashtbl.replace tbl (c.Rm_sim.task, c.Rm_sim.index) c.Rm_sim.finish)
    result.Rm_sim.completions;
  ignore n_jobs;
  tbl

(* The paper's scheme: every processor scheduled rate-monotonically and
   independently, subjob phases postponed by the cumulative deltas. *)
let simulate_postponed ~deadline_factor ~horizon (sys : Periodic_shop.t) deltas =
  let n = Periodic_shop.n_jobs sys in
  let m = sys.processors in
  if Array.length deltas <> m then invalid_arg "Pipeline_sim: wrong delta count";
  let phases = E2e_periodic.Analysis.phases sys deltas in
  let tables =
    Array.init m (fun j ->
        let specs =
          Array.mapi
            (fun i (job : Periodic_shop.job) ->
              (phases.(i).(j), Rat.to_float job.period, Rat.to_float job.proc_times.(j)))
            sys.jobs
        in
        completion_table n (Rm_sim.simulate ~horizon (Rm_sim.rm_priorities specs)))
  in
  let end_to_end = Array.make n 0.0 in
  let precedence_violations = ref 0 in
  let deadline_misses = ref 0 in
  let requests = ref 0 in
  for i = 0 to n - 1 do
    let job = sys.jobs.(i) in
    let p = Rat.to_float job.Periodic_shop.period in
    let b = Rat.to_float job.Periodic_shop.phase in
    let k = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let ready = b +. (float_of_int !k *. p) in
      let complete_chain =
        Array.for_all (fun tbl -> Hashtbl.mem tbl (i, !k)) tables
      in
      if (not complete_chain) || ready >= horizon then continue_ := false
      else begin
        incr requests;
        Obs.incr "pipeline_sim.requests";
        (* Precedence: the postponed release of stage j must not precede
           the completion of stage j-1. *)
        for j = 1 to m - 1 do
          let release_j = phases.(i).(j) +. (float_of_int !k *. p) in
          let prev_finish = Hashtbl.find tables.(j - 1) (i, !k) in
          if prev_finish > release_j +. eps then begin
            incr precedence_violations;
            if Obs.enabled () then begin
              Obs.incr "pipeline_sim.precedence_violations";
              Obs.event "pipeline_sim.precedence_violation"
                ~fields:
                  [
                    ("job", Obs.Int i); ("request", Obs.Int !k); ("stage", Obs.Int j);
                    ("release", Obs.Float release_j);
                    ("prev_finish", Obs.Float prev_finish);
                  ]
            end
          end
        done;
        let finish = Hashtbl.find tables.(m - 1) (i, !k) in
        let response = finish -. ready in
        if Obs.enabled () then Obs.observe "pipeline_sim.response" response;
        if response > end_to_end.(i) then end_to_end.(i) <- response;
        if response > (deadline_factor *. p) +. eps then begin
          incr deadline_misses;
          if Obs.enabled () then begin
            Obs.incr "pipeline_sim.deadline_misses";
            Obs.event "pipeline_sim.deadline_miss"
              ~fields:
                [
                  ("job", Obs.Int i); ("request", Obs.Int !k);
                  ("response", Obs.Float response);
                  ("deadline", Obs.Float (deadline_factor *. p));
                ]
          end
        end;
        incr k
      end
    done
  done;
  {
    end_to_end;
    precedence_violations = !precedence_violations;
    deadline_misses = !deadline_misses;
    requests = !requests;
  }

(* Greedy cross-processor synchronisation: stage j is released the moment
   stage j-1 completes; each processor is preemptive fixed-priority. *)
type sjob = {
  job : int;
  k : int;
  stage : int;
  ready : float;
  priority : int;
  mutable remaining : float;
}

let simulate_direct ~deadline_factor ~horizon (sys : Periodic_shop.t) =
  let n = Periodic_shop.n_jobs sys in
  let m = sys.processors in
  let period i = Rat.to_float sys.jobs.(i).Periodic_shop.period in
  let wcet i j = Rat.to_float sys.jobs.(i).Periodic_shop.proc_times.(j) in
  (* Rate-monotonic priorities by period, ties by id. *)
  let prio =
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b -> if period a <> period b then compare (period a) (period b) else compare a b)
      order;
    let p = Array.make n 0 in
    Array.iteri (fun rank i -> p.(i) <- rank) order;
    p
  in
  let cmp a b =
    let c = compare a.priority b.priority in
    if c <> 0 then c
    else
      let c = compare a.ready b.ready in
      if c <> 0 then c else compare (a.job, a.k, a.stage) (b.job, b.k, b.stage)
  in
  let pending = Array.init m (fun _ -> Heap.create ~cmp) in
  let arrivals =
    List.concat
      (List.init n (fun i ->
           let b = Rat.to_float sys.jobs.(i).Periodic_shop.phase in
           let rec gen k acc =
             let ready = b +. (float_of_int k *. period i) in
             if ready >= horizon then List.rev acc
             else
               gen (k + 1)
                 ({ job = i; k; stage = 0; ready; priority = prio.(i); remaining = wcet i 0 }
                 :: acc)
           in
           gen 0 []))
    |> List.sort (fun a b -> compare a.ready b.ready)
  in
  let end_to_end = Array.make n 0.0 in
  let deadline_misses = ref 0 in
  let requests = ref 0 in
  let hard_stop = 4.0 *. horizon in
  let record_completion j finish =
    if j.stage = m - 1 then begin
      let ready0 = Rat.to_float sys.jobs.(j.job).Periodic_shop.phase
                   +. (float_of_int j.k *. period j.job) in
      let response = finish -. ready0 in
      incr requests;
      Obs.incr "pipeline_sim.requests";
      if Obs.enabled () then Obs.observe "pipeline_sim.response" response;
      if response > end_to_end.(j.job) then end_to_end.(j.job) <- response;
      if response > (deadline_factor *. period j.job) +. eps then begin
        incr deadline_misses;
        if Obs.enabled () then begin
          Obs.incr "pipeline_sim.deadline_misses";
          Obs.event "pipeline_sim.deadline_miss"
            ~fields:
              [
                ("job", Obs.Int j.job); ("request", Obs.Int j.k);
                ("response", Obs.Float response);
                ("deadline", Obs.Float (deadline_factor *. period j.job));
              ]
        end
      end
    end
  in
  let rec run t arrivals =
    (* Earliest event: stage-0 arrival or a completion on some processor. *)
    let next_arr = match arrivals with [] -> infinity | a :: _ -> a.ready in
    let next_completion = ref infinity and argmin = ref (-1) in
    for p = 0 to m - 1 do
      match Heap.peek pending.(p) with
      | Some top when t +. top.remaining < !next_completion ->
          next_completion := t +. top.remaining;
          argmin := p
      | _ -> ()
    done;
    if next_arr = infinity && !argmin = -1 then ()
    else if t >= hard_stop then ()
    else if next_arr <= !next_completion then begin
      (* Advance every processor's running job to the arrival instant. *)
      let dt = next_arr -. t in
      if dt > 0.0 then
        Array.iter
          (fun h -> match Heap.peek h with Some top -> top.remaining <- top.remaining -. dt | None -> ())
          pending;
      let now, later = List.partition (fun a -> a.ready <= next_arr) arrivals in
      List.iter (fun a -> Heap.push pending.(0) a) now;
      run next_arr later
    end
    else begin
      let p = !argmin in
      let dt = !next_completion -. t in
      Array.iteri
        (fun q h ->
          if q <> p then
            match Heap.peek h with Some top -> top.remaining <- top.remaining -. dt | None -> ())
        pending;
      let top = Option.get (Heap.pop pending.(p)) in
      let finish = !next_completion in
      record_completion top finish;
      if top.stage < m - 1 then begin
        let stage = top.stage + 1 in
        Heap.push
          pending.(stage)
          {
            job = top.job;
            k = top.k;
            stage;
            ready = finish;
            priority = top.priority;
            remaining = wcet top.job stage;
          }
      end;
      run finish arrivals
    end
  in
  let start = match arrivals with [] -> 0.0 | a :: _ -> a.ready in
  run start arrivals;
  { end_to_end; precedence_violations = 0; deadline_misses = !deadline_misses; requests = !requests }

let simulate ?(deadline_factor = 1.0) ~horizon ~policy sys =
  if horizon <= 0.0 then invalid_arg "Pipeline_sim.simulate: nonpositive horizon";
  Obs.span "pipeline_sim.simulate"
    ~fields:
      [
        ("jobs", Obs.Int (Periodic_shop.n_jobs sys));
        ("horizon", Obs.Float horizon);
        ( "policy",
          Obs.Str
            (match policy with
            | `Postponed_phases _ -> "postponed_phases"
            | `Direct_sync -> "direct_sync") );
      ]
    (fun () ->
      match policy with
      | `Postponed_phases deltas -> simulate_postponed ~deadline_factor ~horizon sys deltas
      | `Direct_sync -> simulate_direct ~deadline_factor ~horizon sys)
