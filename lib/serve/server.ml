(* Transports for the admission service: one select loop.

   The loop runs on the thread that calls it and does the whole job.
   It owns the listener (TCP) and every connection — a TCP socket, or
   stdin/stdout as one more connection — reads whatever is ready
   through {!Wire}'s framer, parses each line and submits requests to
   their shop's {!Stripes} batcher, then steps every non-empty stripe
   itself until its queue is empty, flushing each connection's finished
   replies after each step, and writes through {!Wire}'s partial-write
   output buffers.  No request crosses a thread hand-off: there are no
   reader, writer or drainer threads, no per-stripe lock and no window
   semaphore.

   Per-connection reply order is kept by a queue of reply slots per
   connection, pushed in read order and written in queue order as they
   fill.  Each stripe keeps a FIFO of the slots its queued requests
   answer, parallel to its batcher's queue: replies come back in
   submission order, so the head slot owns the next reply.  Because a
   select iteration ends only once every stripe is empty, the loop
   waits in [select] with no request queued anywhere.

   Admission semantics, {!Rtrace} stage attribution and the
   per-connection reply order are exactly the sequential transport's:
   batch boundaries never change a reply.  Per-connection reply streams
   are byte-identical at every [jobs] value, at every stripe count, and
   under any cross-connection interleaving as long as connections use
   disjoint shop namespaces (an admission decision reads only its own
   shop's committed set, the stripe map is a pure function of the shop
   name, and the canonical cache is transparency-verified).  A [stats]
   or [metrics] line first steps every stripe until it is empty, so it
   counts exactly the requests read before it, on every transport. *)

module Obs = E2e_obs.Obs

let pong = "pong " ^ Protocol.version

let error_line ?(schedules = true) message =
  Protocol.render_reply ~schedules
    (Batcher.Reply (Admission.Request_error { shop = "-"; message }))

type loop = {
  stripes : Stripes.t;
  schedules : bool;
  window : int;
  routes : (Wire.conn * Wire.slot) Queue.t array;
      (* per stripe: the slots its queued requests answer, in the
         batcher's queue order *)
}

let make_loop ~schedules ~window stripes =
  { stripes; schedules; window = max 1 window;
    routes = Array.init (Stripes.count stripes) (fun _ -> Queue.create ()) }

let open_conn ?ofd fd =
  Obs.incr "serve.sessions";
  Wire.conn ?ofd ~greeting:Protocol.greeting fd

(* Step every non-empty stripe until every queue is empty, filling the
   slots its replies answer and flushing the connections they belong to
   after each step — and, when a step solves its requests one by one,
   before each solve, so a finished reply never waits for a solve
   batched behind it. *)
let settle l =
  let touched = ref [] in
  let flush () =
    List.iter Wire.flush !touched;
    touched := []
  in
  let step k b =
    Batcher.step_each b ~before_solve:flush (fun (_req, tr, reply) ->
        let c, slot = Queue.pop l.routes.(k) in
        slot.Wire.reply <-
          Some (Protocol.render_reply ~schedules:l.schedules (Batcher.Reply reply));
        (* The reply line exists: the render stage closes here. *)
        Rtrace.finish tr;
        if not (List.memq c !touched) then touched := c :: !touched);
    flush ()
  in
  let rec go () =
    let stepped = ref false in
    Array.iteri
      (fun k b ->
        if Batcher.pending b > 0 then begin
          stepped := true;
          step k b
        end)
      (Stripes.batchers l.stripes);
    if !stepped then go ()
  in
  go ()

let handle_line l c line =
  let schedules = l.schedules in
  match Protocol.parse_request line with
  | exception (Out_of_memory as e) -> raise e
  | exception _ ->
      (* The scanner answers bad input with [Error]; should a line still
         make it raise, that ends its connection, not the server. *)
      Wire.finish c None
  | Ok Protocol.Blank -> ()
  | Ok (Protocol.Hello requested) -> Wire.reply c (Protocol.render_hello ~requested)
  | Ok Protocol.Ping -> Wire.reply c pong
  | Ok Protocol.Stats ->
      settle l;
      Wire.reply c (Protocol.render_stats l.stripes)
  | Ok Protocol.Metrics ->
      settle l;
      Wire.reply c (Protocol.render_metrics l.stripes)
  | Ok Protocol.Quit -> Wire.finish c (Some "bye")
  | Ok (Protocol.Request req) -> (
      match Stripes.submit l.stripes req with
      | `Queued k -> Queue.push (c, Wire.slot c) l.routes.(k)
      | `Overloaded -> Wire.reply c (Protocol.render_reply ~schedules Batcher.Overloaded))
  | Error message -> Wire.reply c (error_line ~schedules message)

let pump l c =
  ignore
    (Wire.pump ~window:l.window
       ~too_long:(error_line ~schedules:l.schedules "request line too long")
       (handle_line l c) c)

(* A hard read error — a reset or half-closed peer, as opposed to a
   clean EOF — is counted, so stats distinguish connection failures
   from hangups. *)
let readable l c =
  Wire.readable ~on_line:(handle_line l c)
    ~on_error:(fun () ->
      Stripes.note_read_error l.stripes;
      Obs.incr "serve.read_errors")
    c

(* Read what the framers hold, answer it, write; again while writing
   freed room in front of lines already read. *)
let rec work l conns =
  List.iter (pump l) conns;
  settle l;
  List.iter Wire.flush conns;
  if List.exists (fun c -> Wire.room ~window:l.window c && not c.Wire.need_input) conns then
    work l conns

(* One select iteration over the wake pipe, the listener (while [accept]
   may take more) and every connection.  Readiness handlers are looked
   up in the lists built for this [select], so a descriptor closed and
   reused within an iteration is never mistaken for its successor. *)
let iterate ?(timeout = -1.) l ~extra conns =
  let rd = ref extra and wr = ref [] in
  List.iter
    (fun (c : Wire.conn) ->
      if c.need_input && Wire.room ~window:l.window c then
        rd := (c.ifd, fun () -> readable l c) :: !rd;
      if Wire.ob_pending c.out then wr := (c.ofd, ignore) :: !wr)
    conns;
  let r, _, _ =
    try Unix.select (List.map fst !rd) (List.map fst !wr) [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter (fun fd -> (List.assq fd !rd) ()) r

let session ?(schedules = true) ?(window = 64) stripes ifd ofd =
  let l = make_loop ~schedules ~window stripes in
  let c = open_conn ~ofd ifd in
  let rec go () =
    work l [ c ];
    if not (Wire.finished c) then begin
      iterate l ~extra:[] [ c ];
      go ()
    end
  in
  go ()

let serve_stdio ?schedules ?window stripes =
  session ?schedules ?window stripes Unix.stdin Unix.stdout

let serve_tcp ?(schedules = true) ?(host = "127.0.0.1") ?max_connections ?(accept_pool = 4)
    ?(window = 64) ?ready ?(control = Wire.control ()) ~port stripes =
  let accept_pool = max 1 accept_pool in
  let l = make_loop ~schedules ~window stripes in
  let sock = Wire.listen ~host ~port in
  let conns = ref [] and live = ref 0 and accepted = ref 0 and pause = ref 0. in
  let quota_left () = match max_connections with None -> true | Some m -> !accepted < m in
  let rec accept () =
    if !live < accept_pool && quota_left () then
      match Unix.accept ~cloexec:true sock with
      | fd, _ ->
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          conns := open_conn fd :: !conns;
          incr live;
          incr accepted;
          accept ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) when Wire.retriable e -> accept ()
      | exception Unix.Unix_error _ ->
          (* Resource pressure (EMFILE and friends): back off and keep
             serving rather than dying. *)
          pause := Unix.gettimeofday () +. 0.01
  in
  let close (c : Wire.conn) = try Unix.close c.ifd with Unix.Unix_error _ -> () in
  let reset () =
    List.iter
      (fun (c : Wire.conn) ->
        (try Unix.shutdown c.ifd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        close c)
      !conns;
    conns := []
  in
  Fun.protect
    ~finally:(fun () ->
      reset ();
      try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.set_nonblock sock;
      Wire.with_wake control (function
        | None -> ()
        | Some wake ->
            Option.iter (fun f -> f (Wire.bound_port sock ~port)) ready;
            let rec go () =
              if not (Wire.stopped control || ((not (quota_left ())) && !conns = [])) then begin
                let now = Unix.gettimeofday () in
                let accepting = !live < accept_pool && quota_left () in
                let extra =
                  (wake, fun () -> Wire.drain_pipe wake)
                  :: (if accepting && now >= !pause then [ (sock, accept) ] else [])
                in
                let timeout = if accepting && now < !pause then !pause -. now else -1. in
                iterate ~timeout l ~extra !conns;
                if not (Wire.stopped control) then begin
                  work l !conns;
                  conns :=
                    List.filter
                      (fun c ->
                        (not (Wire.finished c))
                        || begin
                          close c;
                          decr live;
                          false
                        end)
                      !conns
                end;
                go ()
              end
            in
            go ()))
