module Heap = E2e_ds.Heap

type task = { id : int; phase : float; period : float; wcet : float; priority : int }

let rm_priorities specs =
  let order = Array.init (Array.length specs) Fun.id in
  Array.sort
    (fun a b ->
      let _, pa, _ = specs.(a) and _, pb, _ = specs.(b) in
      if pa <> pb then compare pa pb else compare a b)
    order;
  let priority_of = Array.make (Array.length specs) 0 in
  Array.iteri (fun rank idx -> priority_of.(idx) <- rank) order;
  Array.mapi
    (fun id (phase, period, wcet) -> { id; phase; period; wcet; priority = priority_of.(id) })
    specs

type completion = { task : int; index : int; ready : float; finish : float }

let response c = c.finish -. c.ready

type result = {
  completions : completion list;
  max_response : float array;
  unfinished : int;
}

type job = { spec : task; k : int; ready_at : float; rank : float; mutable remaining : float }

(* Core event loop, parameterised by a per-request rank (lower runs
   first): static priorities give rate-monotonic and friends, the
   request's absolute deadline gives EDF. *)
let simulate_ranked ~horizon ~rank tasks =
  if horizon <= 0.0 then invalid_arg "Rm_sim.simulate: nonpositive horizon";
  Array.iter
    (fun t -> if t.period <= 0.0 || t.wcet <= 0.0 then invalid_arg "Rm_sim.simulate: bad task")
    tasks;
  (* All arrivals within the horizon, in time order. *)
  let arrivals =
    Array.to_list tasks
    |> List.concat_map (fun t ->
           let rec gen k acc =
             let ready_at = t.phase +. (float_of_int k *. t.period) in
             if ready_at >= horizon then List.rev acc
             else
               gen (k + 1)
                 ({ spec = t; k; ready_at; rank = rank t ~ready:ready_at; remaining = t.wcet }
                 :: acc)
           in
           gen 0 [])
    |> List.sort (fun a b -> compare a.ready_at b.ready_at)
  in
  let pending =
    Heap.create ~cmp:(fun a b ->
        let c = compare a.rank b.rank in
        if c <> 0 then c
        else
          let c = compare (a.spec.priority, a.ready_at) (b.spec.priority, b.ready_at) in
          if c <> 0 then c else compare (a.spec.id, a.k) (b.spec.id, b.k))
  in
  let completions = ref [] in
  let max_response = Array.make (Array.length tasks) 0.0 in
  let hard_stop = 4.0 *. horizon in
  let rec run t arrivals =
    match (Heap.peek pending, arrivals) with
    | None, [] -> ()
    | None, a :: _ ->
        let t = a.ready_at in
        let now, later = List.partition (fun x -> x.ready_at <= t) arrivals in
        List.iter (Heap.push pending) now;
        run t later
    | Some top, _ when t >= hard_stop ->
        ignore top (* overload: leave the rest as unfinished *)
    | Some top, arrivals ->
        let next_arr = match arrivals with [] -> infinity | a :: _ -> a.ready_at in
        (* [remaining] is an accumulated float: a completion that
           coincides with an arrival up to that drift completes first,
           as it would in exact arithmetic. *)
        let finish_at =
          let f = t +. top.remaining in
          if f > next_arr && f -. next_arr <= 1e-9 *. Float.max 1.0 next_arr then next_arr
          else f
        in
        if finish_at <= next_arr then begin
          ignore (Heap.pop pending);
          let c = { task = top.spec.id; index = top.k; ready = top.ready_at; finish = finish_at } in
          completions := c :: !completions;
          if response c > max_response.(top.spec.id) then
            max_response.(top.spec.id) <- response c;
          run finish_at arrivals
        end
        else begin
          top.remaining <- top.remaining -. (next_arr -. t);
          let now, later = List.partition (fun x -> x.ready_at <= next_arr) arrivals in
          List.iter (Heap.push pending) now;
          run next_arr later
        end
  in
  let start = match arrivals with [] -> 0.0 | a :: _ -> a.ready_at in
  run start arrivals;
  { completions = List.rev !completions; max_response; unfinished = Heap.length pending }

let simulate ~horizon tasks =
  simulate_ranked ~horizon ~rank:(fun t ~ready:_ -> float_of_int t.priority) tasks

let simulate_edf ~horizon ~relative_deadlines tasks =
  if Array.length relative_deadlines <> Array.length tasks then
    invalid_arg "Rm_sim.simulate_edf: one relative deadline per task";
  simulate_ranked ~horizon
    ~rank:(fun t ~ready -> ready +. relative_deadlines.(t.id))
    tasks
