(* Shared socket plumbing for the line-protocol transports: one line
   framer (the blocking reader below and both select loops — the
   admission server's and the cluster dispatcher's — run it), the
   output buffer and the connection both loops serve, the listening
   socket, and the shutdown handle that wakes a loop through its
   self-pipe. *)

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

(* Line framing, shared by the blocking reader below and the two
   select loops (the server's and the dispatcher's): a fixed chunk
   buffer plus an accumulator capped at [max_line] — an oversized request line is a protocol
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

(* An output buffer that survives partial non-blocking writes: the
   bytes [sent .. len) are still to be written.  Both select loops —
   the server's and the dispatcher's — queue reply lines into one per
   connection and flush it whenever the socket takes more. *)
type obuf = { mutable bytes : Bytes.t; mutable len : int; mutable sent : int }

let obuf () = { bytes = Bytes.create 4096; len = 0; sent = 0 }
let ob_pending o = o.len > o.sent

let ob_line o s =
  let n = String.length s in
  if o.len + n + 1 > Bytes.length o.bytes then begin
    let live = o.len - o.sent in
    let cap = ref (Bytes.length o.bytes) in
    while live + n + 1 > !cap do
      cap := 2 * !cap
    done;
    (* Grow, or just slide the unwritten tail to the front. *)
    let b = if !cap > Bytes.length o.bytes then Bytes.create !cap else o.bytes in
    Bytes.blit o.bytes o.sent b 0 live;
    o.bytes <- b;
    o.len <- live;
    o.sent <- 0
  end;
  Bytes.blit_string s 0 o.bytes o.len n;
  Bytes.unsafe_set o.bytes (o.len + n) '\n';
  o.len <- o.len + n + 1

let rec ob_flush o fd =
  if o.sent >= o.len then begin
    o.len <- 0;
    o.sent <- 0;
    true
  end
  else
    match Unix.single_write fd o.bytes o.sent (o.len - o.sent) with
    | w ->
        o.sent <- o.sent + w;
        ob_flush o fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ob_flush o fd
    | exception Unix.Unix_error _ -> false

(* ------------------------------------------------------------------ *)
(* One connection of a select loop: a framer over its input, its reply
   slots in request order, and its output buffer.  The loop that owns
   it fills the slots (at once, or later when an answer arrives);
   [flush] writes every filled head slot in order. *)

type slot = { mutable reply : string option }

type conn = {
  ifd : Unix.file_descr;
  ofd : Unix.file_descr;
  frame : framer;
  slots : slot Queue.t;
  out : obuf;
  mutable reading : bool;
  mutable need_input : bool;
  mutable dead : bool;
}

(* Connection reads go through the framer in chunks this large. *)
let chunk = 65536

let conn ?ofd ~greeting ifd =
  let c =
    { ifd; ofd = Option.value ofd ~default:ifd; frame = framer ~size:chunk ();
      slots = Queue.create (); out = obuf (); reading = true; need_input = true;
      dead = false }
  in
  ob_line c.out greeting;
  c

let slot c =
  let s = { reply = None } in
  Queue.push s c.slots;
  s

let reply c line = Queue.push { reply = Some line } c.slots

let finish c last =
  if c.reading then begin
    c.reading <- false;
    Option.iter (reply c) last
  end

let room ~window c = c.reading && Queue.length c.slots < window && not (ob_pending c.out)

let rec pump ~window ~too_long handle c =
  room ~window c
  &&
  match next_line c.frame with
  | `Need_input ->
      c.need_input <- true;
      false
  | `Too_long ->
      (* The oversized line was never fully read: resynchronising
         mid-line would misparse its tail as requests. *)
      finish c (Some too_long);
      true
  | `Line l ->
      handle l;
      ignore (pump ~window ~too_long handle c);
      true

let readable ~on_line ~on_error c =
  match refill c.frame c.ifd with
  | 0 ->
      (* A partial final line is a line, like [input_line]'s. *)
      Option.iter on_line (at_eof c.frame);
      finish c None
  | _ -> c.need_input <- false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
      on_error ();
      finish c None

let flush c =
  if not c.dead then begin
    let rec move () =
      match Queue.peek_opt c.slots with
      | Some { reply = Some line } ->
          ignore (Queue.pop c.slots);
          ob_line c.out line;
          move ()
      | _ -> ()
    in
    move ();
    if ob_pending c.out && not (ob_flush c.out c.ofd) then begin
      c.dead <- true;
      c.reading <- false
    end
  end

let finished c =
  c.dead || ((not c.reading) && Queue.is_empty c.slots && not (ob_pending c.out))

(* ------------------------------------------------------------------ *)
(* Listening sockets and the shutdown handle. *)

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

(* [wake] is the write end of the self-pipe of the loop the handle is
   attached to ({!with_wake}); [shutdown] writes one byte to it under
   [mu], and the loop unregisters it under [mu] before closing it, so a
   wake-up never lands on a closed (or reused) descriptor and is never
   lost. *)
type control = { mu : Mutex.t; mutable stop : bool; mutable wake : Unix.file_descr option }

let control () = { mu = Mutex.create (); stop = false; wake = None }

let locked c f =
  Mutex.lock c.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mu) f

let stopped c = locked c (fun () -> c.stop)

let shutdown c =
  locked c (fun () ->
      c.stop <- true;
      Option.iter
        (fun fd ->
          try ignore (Unix.single_write_substring fd "!" 0 1)
          with Unix.Unix_error _ -> () (* a full pipe wakes the loop anyway *))
        c.wake)

let drain_pipe fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let with_wake c f =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  Fun.protect
    ~finally:(fun () ->
      locked c (fun () -> c.wake <- None);
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let attached =
        locked c (fun () ->
            if not c.stop then c.wake <- Some w;
            not c.stop)
      in
      f (if attached then Some r else None))

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
