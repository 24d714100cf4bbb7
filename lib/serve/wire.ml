(* Shared socket plumbing for the line-protocol transports: one line
   framer (the blocking reader below and the cluster dispatcher's
   select loop both run it), the per-connection reply machinery — an
   ordered cell queue of reply slots, a counting-semaphore window
   bounding reader lead, and a writer thread that flushes every
   consecutive ready reply with one [write] (writev-style coalescing) —
   and the threaded TCP listener the admission server runs: accept
   pool, connection quota, shutdown control and the per-connection
   lifecycle. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Line framing, shared by the blocking reader below and the
   dispatcher's select loop: a fixed chunk buffer plus an accumulator
   capped at [max_line] — an oversized request line is a protocol
   error, not an unbounded allocation.  The framer never reads; its
   owner refills the chunk buffer (blocking or not) whenever
   [next_line] asks for input. *)
let max_line = 1 lsl 20

type framer = {
  rbuf : Bytes.t;
  mutable rlen : int;
  mutable rpos : int;
  acc : Buffer.t;
}

let framer ?(size = 4096) () =
  { rbuf = Bytes.create size; rlen = 0; rpos = 0; acc = Buffer.create 256 }

(* The first newline in [b.[i .. stop)]: the bytes past the last read
   are stale, and a search through them could run to the end of a
   large chunk buffer. *)
let rec newline b i stop =
  if i >= stop then None
  else if Bytes.unsafe_get b i = '\n' then Some i
  else newline b (i + 1) stop

let rec next_line f =
  if Buffer.length f.acc > max_line then `Too_long
  else if f.rpos >= f.rlen then `Need_input
  else
    match newline f.rbuf f.rpos f.rlen with
    | Some i ->
        if Buffer.length f.acc + (i - f.rpos) > max_line then
          (* The newline arrived, but the line already blew the cap: the
             bound is exact, not chunk-granular.  Nothing is consumed, so
             the result is sticky — every later call answers the same. *)
          `Too_long
        else if Buffer.length f.acc = 0 then begin
          (* Hot path: the whole line sits inside the chunk buffer, so
             one [Bytes.sub_string] builds it — no accumulator round
             trip, no second copy to strip the [\r]. *)
          let stop =
            if i > f.rpos && Bytes.get f.rbuf (i - 1) = '\r' then i - 1 else i
          in
          let s = Bytes.sub_string f.rbuf f.rpos (stop - f.rpos) in
          f.rpos <- i + 1;
          `Line s
        end
        else begin
          Buffer.add_subbytes f.acc f.rbuf f.rpos (i - f.rpos);
          f.rpos <- i + 1;
          let s = Buffer.contents f.acc in
          Buffer.clear f.acc;
          let s =
            if String.length s > 0 && s.[String.length s - 1] = '\r' then
              String.sub s 0 (String.length s - 1)
            else s
          in
          `Line s
        end
    | None ->
        Buffer.add_subbytes f.acc f.rbuf f.rpos (f.rlen - f.rpos);
        f.rpos <- f.rlen;
        next_line f

let refill f fd =
  let n = Unix.read fd f.rbuf 0 (Bytes.length f.rbuf) in
  f.rlen <- n;
  f.rpos <- 0;
  n

let at_eof f =
  if Buffer.length f.acc = 0 then None
  else begin
    (* Partial final line at EOF behaves like [input_line]. *)
    let s = Buffer.contents f.acc in
    Buffer.clear f.acc;
    Some s
  end

type reader = { rfd : Unix.file_descr; rframe : framer }

let make_reader rfd = { rfd; rframe = framer () }

let rec read_line r =
  match next_line r.rframe with
  | (`Line _ | `Too_long) as x -> x
  | `Need_input -> (
      match refill r.rframe r.rfd with
      | 0 -> ( match at_eof r.rframe with Some s -> `Line s | None -> `Eof)
      | _ -> read_line r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
      | exception Unix.Unix_error (e, _, _) -> `Error e)

(* A reply slot: filled with the rendered line by whoever resolves the
   request (a drainer domain, an upstream receiver thread, or the
   reader itself for control replies), written by the connection's
   writer thread in queue order. *)
type pending = { mutable line : string option }

type cell =
  | Out of pending
  | End of string option  (* final line (if any), then teardown *)

type conn = {
  fd : Unix.file_descr;
  cmu : Mutex.t;
  filled : Condition.t;  (* a cell was pushed or a pending was filled *)
  cells : cell Queue.t;
  window : Semaphore.Counting.t;  (* bounds reader lead over writer *)
}

let make_conn ~window fd =
  {
    fd;
    cmu = Mutex.create ();
    filled = Condition.create ();
    cells = Queue.create ();
    window = Semaphore.Counting.make (max 1 window);
  }

let push_cell conn cell =
  Mutex.lock conn.cmu;
  Queue.push cell conn.cells;
  Condition.signal conn.filled;
  Mutex.unlock conn.cmu

(* Acquire a window slot, then queue an already-rendered reply line. *)
let push_line conn line =
  Semaphore.Counting.acquire conn.window;
  push_cell conn (Out { line = Some line })

(* Acquire a window slot and queue an empty reply slot; the returned
   function resolves it from any thread or domain. *)
let push_slot conn =
  Semaphore.Counting.acquire conn.window;
  let p = { line = None } in
  push_cell conn (Out p);
  fun line ->
    Mutex.lock conn.cmu;
    p.line <- Some line;
    Condition.signal conn.filled;
    Mutex.unlock conn.cmu

let push_end conn last = push_cell conn (End last)

(* Writer thread: pops cells in order, blocking while the head is an
   unfilled reply slot.  Consecutive ready replies are coalesced into
   one [write] — under pipelining a drained batch of replies costs one
   syscall, not one per line.  Write errors switch to discard mode
   rather than abandoning the queue: every slot must still be consumed
   so the window releases and later fills go somewhere. *)
let writer_loop conn =
  let dead = ref false in
  let buf = Buffer.create 4096 in
  let flush_buf () =
    if Buffer.length buf > 0 then begin
      (if not !dead then
         try write_all conn.fd (Buffer.contents buf)
         with Unix.Unix_error _ -> dead := true);
      Buffer.clear buf
    end
  in
  (* Under [conn.cmu]: wait until the head cell is ready, then pop it
     and every consecutive ready cell (stopping after an [End]). *)
  let rec ready_run () =
    match Queue.peek_opt conn.cells with
    | None | Some (Out { line = None }) ->
        Condition.wait conn.filled conn.cmu;
        ready_run ()
    | Some _ ->
        let rec take acc =
          match Queue.peek_opt conn.cells with
          | Some (Out { line = Some _ } as cell) ->
              ignore (Queue.pop conn.cells);
              take (cell :: acc)
          | Some (End _ as cell) ->
              ignore (Queue.pop conn.cells);
              List.rev (cell :: acc)
          | _ -> List.rev acc
        in
        take []
  in
  let rec loop () =
    Mutex.lock conn.cmu;
    let run = ready_run () in
    Mutex.unlock conn.cmu;
    let finished =
      List.fold_left
        (fun finished cell ->
          match cell with
          | Out { line = Some l } ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n';
              finished
          | Out { line = None } -> assert false
          | End last ->
              Option.iter
                (fun l ->
                  Buffer.add_string buf l;
                  Buffer.add_char buf '\n')
                last;
              true)
        false run
    in
    flush_buf ();
    (* Release one window slot per flushed reply, after the write: the
       window bounds rendered-but-unwritten replies. *)
    List.iter
      (function
        | Out _ -> Semaphore.Counting.release conn.window
        | End _ -> ())
      run;
    if not finished then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The listener.

   An accept pool of [accept_pool] systhreads in the caller's domain
   each owns one live connection at a time: a listener costs no domain
   of its own, so a minor collection (which stops every domain) never
   has to wake idle readers.  Every blocking call here ([accept],
   [read], [write], a condition wait) releases the domain lock, so an
   idle pool thread costs only its stack.  [control] is the
   external-shutdown handle: [shutdown] wakes blocked accepts by
   shutting the listener down (accept fails with EINVAL) and resets
   every live connection (readers see EOF, writers see EPIPE), so
   every accept thread drains and [serve] returns — the in-process
   analogue of killing the process, which the cluster harnesses use to
   exercise failover. *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
      match
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

type control = {
  mu : Mutex.t;
  mutable stop : bool;
  mutable listener : Unix.file_descr option;
  mutable conns : Unix.file_descr list;
}

let control () = { mu = Mutex.create (); stop = false; listener = None; conns = [] }

let locked c f =
  Mutex.lock c.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mu) f

let shutdown c =
  let listener, conns =
    locked c (fun () ->
        c.stop <- true;
        let l = c.listener in
        c.listener <- None;
        (l, c.conns))
  in
  let shut fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> () in
  Option.iter shut listener;
  List.iter shut conns

(* One connection, in the accept thread that owns it: greeting, writer
   thread, handler, then teardown — join the writer (which flushes
   every outstanding reply and the farewell) before closing the fd, so
   a [quit] races nothing and no buffered reply is ever lost. *)
let handle_conn ~greeting ~window handler fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      match write_all fd (greeting ^ "\n") with
      | exception Unix.Unix_error _ -> ()
      | () ->
          let conn = make_conn ~window fd in
          let writer = Thread.create writer_loop conn in
          Fun.protect
            ~finally:(fun () -> Thread.join writer)
            (fun () -> try handler conn (make_reader fd) with _ -> push_end conn None))

let retriable = function
  | Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK -> true
  | _ -> false

let listen ~host ~port =
  let addr = Unix.ADDR_INET (resolve_host host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* A peer that disappears mid-reply must surface as EPIPE on the
     write, not kill the whole process.  Ignored for good, never
     restored: a thread that outlives this listener (a client or an
     upstream lane writing to a dead shard) must not be killed either,
     and every write already handles EPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock addr;
    Unix.listen sock 64
  with
  | () -> sock
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e

let bound_port sock ~port =
  match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port

let serve ?(host = "127.0.0.1") ?max_connections ?(accept_pool = 4) ?(window = 64) ?ready
    ?(control = control ()) ~greeting ~port handler =
  let sock = listen ~host ~port in
  Fun.protect
    ~finally:(fun () ->
      locked control (fun () -> control.listener <- None);
      try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let already_stopped =
        locked control (fun () ->
            if not control.stop then control.listener <- Some sock;
            control.stop)
      in
      if not already_stopped then begin
        (match ready with
        | None -> ()
        | Some f -> f (bound_port sock ~port));
        (* Connection slots are claimed before accepting, so with a
           quota exactly [max_connections] accepts happen across the
           pool and every accept thread terminates. *)
        let slots = Atomic.make 0 in
        let rec accept_loop () =
          if not (locked control (fun () -> control.stop)) then
            let slot = Atomic.fetch_and_add slots 1 in
            let quota_ok = match max_connections with None -> true | Some n -> slot < n in
            if quota_ok then
              match Unix.accept sock with
              | fd, _ ->
                  (* Register under the lock, or refuse when a shutdown
                     raced the accept: no live connection escapes it. *)
                  if locked control (fun () ->
                         if not control.stop then control.conns <- fd :: control.conns;
                         not control.stop)
                  then begin
                    (try handle_conn ~greeting ~window handler fd with _ -> ());
                    locked control (fun () ->
                        control.conns <- List.filter (fun fd' -> fd' != fd) control.conns)
                  end
                  else (try Unix.close fd with Unix.Unix_error _ -> ());
                  accept_loop ()
              | exception Unix.Unix_error (e, _, _) when retriable e ->
                  (* Transient accept failures (EINTR, a connection that
                     aborted in the backlog) must not kill the listener:
                     retry on the same slot. *)
                  Atomic.decr slots;
                  accept_loop ()
              | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
                  () (* listener closed or shut down: stop accepting *)
              | exception Unix.Unix_error (_, _, _) ->
                  (* Resource pressure (EMFILE and friends): back off and
                     keep serving rather than dying. *)
                  Atomic.decr slots;
                  Unix.sleepf 0.01;
                  accept_loop ()
        in
        Array.init (max 1 accept_pool) (fun _ -> Thread.create accept_loop ())
        |> Array.iter Thread.join
      end)
