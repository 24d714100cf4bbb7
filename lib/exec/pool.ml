let recommended_jobs () = Domain.recommended_domain_count ()

let default_jobs () =
  match Sys.getenv_opt "E2E_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n (recommended_jobs ())
      | _ -> 1)

let resolve_jobs = function
  | None -> default_jobs ()
  | Some n ->
      if n < 1 then invalid_arg "Pool.resolve_jobs: jobs must be >= 1";
      n

(* One slot per job: the result, or the exception it raised.  Workers
   write disjoint slots; [Domain.join] publishes them to the caller. *)
type 'b slot = Empty | Value of 'b | Raised of exn * Printexc.raw_backtrace

let map ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let n = Array.length items in
  if jobs = 1 || n <= 1 then Array.map f items
  else begin
    let slots = Array.make n Empty in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (slots.(i) <-
             (match f items.(i) with
             | v -> Value v
             | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (min jobs n) (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (* Lowest-index exception wins, whatever order the domains ran in. *)
    Array.iter
      (function Raised (e, bt) -> Printexc.raise_with_backtrace e bt | _ -> ())
      slots;
    Array.map (function Value v -> v | Empty | Raised _ -> assert false) slots
  end

let init ~jobs n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  map ~jobs f (Array.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Persistent shared pool.

   [map] pays a domain spawn+join per call — fine for experiment
   sweeps (a handful of calls), ruinous for a server stepping small
   batches (measured ~3.6ms per 4-domain spawn+join, dwarfing the
   solves themselves).  [run] keeps one process-wide set of worker
   domains parked on a condition variable and hands each call's work
   to them, the caller working alongside as rank 0, so [jobs = N]
   occupies N - 1 workers; the result contract (submission order,
   lowest-index exception, jobs=1 sequential) is identical to [map]'s.

   Workers are daemons: they are never joined, and a process exit with
   workers parked terminates normally.  Worker-side telemetry is safe
   because [E2e_obs.Obs] registers each domain's collector globally
   and merges at read time; the pool mutex orders the workers' writes
   before the caller's return. *)

let max_workers = 64

type shared = {
  mu : Mutex.t;
  work : Condition.t;  (* a batch was posted (epoch changed) *)
  done_ : Condition.t;  (* the last worker finished the current batch *)
  ready : Condition.t;  (* a freshly spawned worker parked *)
  mutable spawned : int;
  mutable registered : int;  (* workers that reached the park loop *)
  mutable body : (int -> unit) option;  (* rank-indexed batch body *)
  mutable epoch : int;
  mutable finished : int;  (* workers done with the current epoch *)
}

let shared =
  {
    mu = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    ready = Condition.create ();
    spawned = 0;
    registered = 0;
    body = None;
    epoch = 0;
    finished = 0;
  }

(* Set in every pool worker, and in a caller while it works as rank 0:
   a job that itself calls [run] must not wait on the workers it is
   occupying (or on [owner], which its caller holds), so nested calls
   inline. *)
let in_worker = Domain.DLS.new_key (fun () -> ref false)

let worker rank () =
  Domain.DLS.get in_worker := true;
  let t = shared in
  Mutex.lock t.mu;
  t.registered <- t.registered + 1;
  Condition.broadcast t.ready;
  let last = ref t.epoch in
  while true do
    while t.epoch = !last do
      Condition.wait t.work t.mu
    done;
    last := t.epoch;
    let body = Option.get t.body in
    Mutex.unlock t.mu;
    (try body rank with _ -> () (* bodies trap their own exceptions *));
    Mutex.lock t.mu;
    t.finished <- t.finished + 1;
    if t.finished = t.registered then Condition.signal t.done_
  done

(* One batch at a time: callers queue here, not on [shared.mu]. *)
let owner = Mutex.create ()

let run ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let n = Array.length items in
  let nested = Domain.DLS.get in_worker in
  if jobs = 1 || n <= 1 || !nested then Array.map f items
  else begin
    let t = shared in
    Mutex.lock owner;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock owner)
      (fun () ->
        Mutex.lock t.mu;
        (* Workers take ranks 1, 2, ...; rank 0 is the caller. *)
        let want = min (jobs - 1) max_workers in
        while t.spawned < want do
          t.spawned <- t.spawned + 1;
          ignore (Domain.spawn (worker t.spawned))
        done;
        (* Every worker must be parked with the pre-batch epoch before
           the batch is posted, or a late registrant could miss it and
           leave the batch undercounted. *)
        while t.registered < t.spawned do
          Condition.wait t.ready t.mu
        done;
        let slots = Array.make n Empty in
        let next = Atomic.make 0 in
        let body rank =
          if rank < jobs then begin
            let rec loop () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                (slots.(i) <-
                   (match f items.(i) with
                   | v -> Value v
                   | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
                loop ()
              end
            in
            loop ()
          end
        in
        t.body <- Some body;
        t.epoch <- t.epoch + 1;
        t.finished <- 0;
        Condition.broadcast t.work;
        Mutex.unlock t.mu;
        (* The body traps its jobs' exceptions, so [nested] is always
           cleared before the caller waits for the workers. *)
        nested := true;
        body 0;
        nested := false;
        Mutex.lock t.mu;
        while t.finished < t.registered do
          Condition.wait t.done_ t.mu
        done;
        t.body <- None;
        Mutex.unlock t.mu;
        Array.iter
          (function Raised (e, bt) -> Printexc.raise_with_backtrace e bt | _ -> ())
          slots;
        Array.map (function Value v -> v | Empty | Raised _ -> assert false) slots)
  end
