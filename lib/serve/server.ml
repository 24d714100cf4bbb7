module Obs = E2e_obs.Obs

(* One chunk's worth of session work: each parsed line becomes either an
   immediate output line or a pending admission request; pending requests
   drain through their stripes as one group, then outputs are emitted in
   request order.  Control replies (hello/stats) are rendered at emission
   time, after the drain, so they observe the chunk's completed work. *)
type action =
  | Emit of string
  | Emit_stats
  | Emit_metrics
  | Pending of int  (* resolved by stripe [k]'s next drained reply, in order *)

let pong = "pong " ^ Protocol.version

let error_line ?(schedules = true) message =
  Protocol.render_reply ~schedules
    (Batcher.Reply (Admission.Request_error { shop = "-"; message }))

(* A hard read error — a reset or half-closed peer, as opposed to a
   clean EOF — is counted on both transports, so stats distinguish
   connection failures from hangups. *)
let note_read_error stripes =
  Stripes.note_read_error stripes;
  Obs.incr "serve.read_errors"

(* Read up to [n] lines through the bounded {!Wire} reader — the same
   read path as the TCP transport, so the 1 MiB line cap and [\r]
   stripping apply to stdio sessions too.  The terminal tag reports why
   the chunk is short: [`More] (chunk full, keep reading), [`Eof]
   (clean end of stream), [`Too_long] (protocol error, session ends
   after an error reply) or [`Error] (hard read error, counted before
   the chunk's lines are answered; session ends). *)
let read_chunk stripes r n =
  let rec go acc k =
    if k = 0 then (List.rev acc, `More)
    else
      match Wire.read_line r with
      | `Line line -> go (line :: acc) (k - 1)
      | `Eof -> (List.rev acc, `Eof)
      | `Too_long -> (List.rev acc, `Too_long)
      | `Error _ ->
          note_read_error stripes;
          (List.rev acc, `Error)
  in
  go [] n

let process_chunk ~schedules stripes lines =
  (* Returns (output lines, saw quit). *)
  let rec classify acc = function
    | [] -> (List.rev acc, false)
    | line :: rest -> (
        match Protocol.parse_request line with
        | Ok Protocol.Blank -> classify acc rest
        | Ok (Protocol.Hello requested) ->
            classify (Emit (Protocol.render_hello ~requested) :: acc) rest
        | Ok Protocol.Stats -> classify (Emit_stats :: acc) rest
        | Ok Protocol.Metrics -> classify (Emit_metrics :: acc) rest
        | Ok Protocol.Ping -> classify (Emit pong :: acc) rest
        | Ok Protocol.Quit -> (List.rev (Emit "bye" :: acc), true)
        | Ok (Protocol.Request req) -> (
            match Stripes.submit stripes req with
            | `Queued k -> classify (Pending k :: acc) rest
            | `Overloaded ->
                classify
                  (Emit (Protocol.render_reply ~schedules Batcher.Overloaded) :: acc)
                  rest)
        | Error message ->
            classify (Emit (error_line ~schedules message) :: acc) rest)
  in
  let actions, quit = classify [] lines in
  let replies = Array.map (fun b -> ref (Batcher.drain b)) (Stripes.batchers stripes) in
  let outputs =
    List.map
      (fun action ->
        match action with
        | Emit line -> line
        | Emit_stats -> Protocol.render_stats stripes
        | Emit_metrics -> Protocol.render_metrics stripes
        | Pending k -> (
            match !(replies.(k)) with
            | (_, tr, reply) :: rest ->
                replies.(k) := rest;
                let line = Protocol.render_reply ~schedules (Batcher.Reply reply) in
                (* The render stage closes once the reply line exists. *)
                Rtrace.finish tr;
                line
            | [] -> assert false (* one drained reply per queued request *)))
      actions
  in
  (outputs, quit)

let session ?(schedules = true) ?chunk stripes fd oc =
  let chunk = match chunk with Some c -> max 1 c | None -> (Stripes.config stripes).batch in
  Obs.incr "serve.sessions";
  output_string oc (Protocol.greeting ^ "\n");
  flush oc;
  let r = Wire.make_reader fd in
  let rec loop () =
    match read_chunk stripes r chunk with
    | [], (`More | `Eof | `Error) -> ()
    | lines, term ->
        let outputs, quit =
          match lines with [] -> ([], false) | _ -> process_chunk ~schedules stripes lines
        in
        List.iter (fun line -> output_string oc (line ^ "\n")) outputs;
        (match term with
        | `Too_long ->
            (* The oversized line was never fully read: answer the
               protocol error and end the session (resynchronising
               mid-line would misparse its tail as requests). *)
            output_string oc (error_line ~schedules "request line too long" ^ "\n")
        | `More | `Eof | `Error -> ());
        flush oc;
        if (not quit) && term = `More then loop ()
  in
  loop ()

let serve_stdio ?schedules stripes = session ?schedules stripes Unix.stdin stdout

(* ------------------------------------------------------------------ *)
(* Concurrent TCP transport.

   The listener — accept pool, connection quota, shutdown control,
   per-connection writer thread and window — is {!Wire.serve}; this
   transport contributes the per-connection reader and the drainers.
   Requests are routed by shop to a {!Stripes} batcher stripe — same
   shop, same stripe — and
   one drainer domain per stripe steps its batcher as soon as it holds
   a request, never waiting for a batch to fill, and routes replies
   back.  Admission semantics, trace stage attribution and the
   per-connection reply order are exactly the sequential transport's.
   Per-connection reply streams stay byte-identical at every [jobs]
   value and {e at every stripe count} (and under any cross-connection
   interleaving) as long as connections use disjoint shop namespaces:
   an admission decision reads only its own shop's committed set, the
   stripe map is a pure function of the shop name, and the canonical
   cache is transparency-verified.

   Domain/thread layout and locking:
   - each stripe has its own [smu] ordering every touch of its batcher
     (submit, step, per-stripe [Rtrace] marks) and its [sroute] FIFO of
     reply slots parallel to that batcher's request queue; the drainer
     releases it while a batch's solves run ({!Batcher.step}'s
     [release]), so readers can queue during the solves;
   - [stats]/[metrics] render an aggregated snapshot by locking all
     stripes in index order (drainers only ever hold their own lock,
     so the order is deadlock-free);
   - each connection runs its reader in its accept thread and one
     {!Wire} writer thread, all systhreads of the listener's domain,
     the window bounding reader lead over the writer (the bounded
     write buffer); a process runs one domain for I/O plus one per
     drainer (plus the solve pool's workers at [jobs > 1]);
   - the reader threads and the drainer domains touch [Obs]/[Rtrace]
     (writer threads get pre-rendered lines); every reader thread
     writes the I/O domain's telemetry store, which [Obs] serialises
     with that store's mutex, and each drainer writes its own. *)

(* One stripe's serialised submit/drain path. *)
type lane = {
  sbatcher : Batcher.t;
  smu : Mutex.t;  (* orders every touch of this stripe's batcher *)
  skick : Condition.t;  (* work queued or stop requested *)
  sroute : (string -> unit) Queue.t;  (* reply-slot fills, batcher queue order *)
  mutable sstop : bool;
}

type center = {
  stripes : Stripes.t;
  lanes : lane array;  (* one per stripe *)
  schedules : bool;
}

(* Aggregated stats/metrics: lock every stripe in index order so the
   snapshot is consistent per stripe and the lock order is global. *)
let with_all_lanes center f =
  Array.iter (fun l -> Mutex.lock l.smu) center.lanes;
  let r = f () in
  Array.iter (fun l -> Mutex.unlock l.smu) center.lanes;
  r

(* Reader: parse lines, render control replies immediately, route
   admission requests through their shop's stripe.  Every reply slot
   takes a window slot before it is queued, so at most [window]
   replies are ever buffered ahead of the writer. *)
let reader_loop center conn r =
  Obs.incr "serve.sessions";
  let schedules = center.schedules in
  let snapshot render =
    let fill = Wire.push_slot conn in
    fill (with_all_lanes center (fun () -> render center.stripes))
  in
  let rec loop () =
    match Wire.read_line r with
    | `Eof -> Wire.push_end conn None
    | `Error _ ->
        note_read_error center.stripes;
        Wire.push_end conn None
    | `Too_long -> Wire.push_end conn (Some (error_line ~schedules "request line too long"))
    | `Line l -> (
        match Protocol.parse_request l with
        | Ok Protocol.Blank -> loop ()
        | Ok (Protocol.Hello requested) ->
            Wire.push_line conn (Protocol.render_hello ~requested);
            loop ()
        | Ok Protocol.Ping ->
            Wire.push_line conn pong;
            loop ()
        | Ok Protocol.Stats ->
            snapshot Protocol.render_stats;
            loop ()
        | Ok Protocol.Metrics ->
            snapshot Protocol.render_metrics;
            loop ()
        | Ok Protocol.Quit -> Wire.push_end conn (Some "bye")
        | Ok (Protocol.Request req) ->
            let fill = Wire.push_slot conn in
            let lane = center.lanes.(Stripes.stripe_of center.stripes req) in
            Mutex.lock lane.smu;
            (match Batcher.submit lane.sbatcher req with
            | `Queued ->
                Queue.push fill lane.sroute;
                Condition.signal lane.skick;
                Mutex.unlock lane.smu
            | `Overloaded ->
                Mutex.unlock lane.smu;
                fill (Protocol.render_reply ~schedules Batcher.Overloaded));
            loop ()
        | Error message ->
            Wire.push_line conn (error_line ~schedules message);
            loop ())
  in
  loop ()

(* Drainer domain (one per stripe): step the stripe's batcher as soon
   as a request is pending, and wait on [skick] only while the queue
   is empty.  The drainer holds [smu] except while it waits and while a
   batch's solves run, so those are the windows in which readers queue:
   under load a batch is what queued during the previous batch's
   solves, capped by the batch size and cut at a repeated shop.  The
   drainer never waits for a batch to fill.  On stop it keeps stepping
   until the queue is empty, so every queued request is answered.  Replies come back in submission order
   and [sroute] is pushed in submission order under the same mutex, so
   the head of [sroute] is always the slot of the head reply. *)
let drainer_loop schedules lane =
  let route_replies replies =
    List.iter
      (fun (_req, tr, reply) ->
        let fill = Queue.pop lane.sroute in
        let line = Protocol.render_reply ~schedules (Batcher.Reply reply) in
        (* The reply line exists: close the render stage here, on the
           one domain that owns this stripe's trace activity. *)
        Rtrace.finish tr;
        fill line)
      replies
  in
  Mutex.lock lane.smu;
  let rec loop () =
    if Batcher.pending lane.sbatcher > 0 then begin
      route_replies (Batcher.step ~release:lane.smu lane.sbatcher);
      loop ()
    end
    else if not lane.sstop then begin
      Condition.wait lane.skick lane.smu;
      loop ()
    end
  in
  loop ();
  Mutex.unlock lane.smu

let serve_tcp ?(schedules = true) ?host ?max_connections ?accept_pool ?window ?ready
    ?control ~port stripes =
  let lanes =
    Array.map
      (fun b ->
        { sbatcher = b; smu = Mutex.create (); skick = Condition.create ();
          sroute = Queue.create (); sstop = false })
      (Stripes.batchers stripes)
  in
  let drainers =
    Array.map (fun lane -> Domain.spawn (fun () -> drainer_loop schedules lane)) lanes
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun lane ->
          Mutex.lock lane.smu;
          lane.sstop <- true;
          Condition.broadcast lane.skick;
          Mutex.unlock lane.smu)
        lanes;
      Array.iter Domain.join drainers)
    (fun () ->
      Wire.serve ?host ?max_connections ?accept_pool ?window ?ready ?control
        ~greeting:Protocol.greeting ~port
        (reader_loop { stripes; lanes; schedules }))
