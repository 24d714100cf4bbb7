(* Status checker: liveness probing for the shard registry.

   A probe is one short-lived protocol session — connect (bounded by
   [timeout]), read the greeting, send [ping], expect [pong ...] —
   against a shard's serving port, exactly what a client would
   experience.  The checker thread probes every registered shard each
   [interval] and feeds outcomes to {!Registry.note_probe}: after the
   registry's fail-threshold consecutive failures the shard is marked
   dead (its shops fail over), and the first successful probe revives
   it — unless an upstream reported the shard down while that probe
   was in flight.  [rpc] is the same bounded session machinery running arbitrary
   request lines — the dispatcher's metrics aggregation and the
   shard-side registration hook reuse it. *)

module Wire = E2e_serve.Wire

(* Start a TCP connect without blocking: the socket comes back
   non-blocking, with [true] while the handshake is still in flight
   (the fd turns writable when it completes; [Unix.getsockopt_error]
   then tells success from failure).  The dispatcher's select loop
   finishes lane connects that way; [connect] below waits under a
   [select] deadline. *)
let connect_start ~host ~port =
  match Wire.resolve_host host with
  | exception Failure e -> Error e
  | inet -> (
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | fd -> (
          Unix.set_nonblock fd;
          match Unix.connect fd (Unix.ADDR_INET (inet, port)) with
          | () -> Ok (fd, false)
          | exception
              Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
              Ok (fd, true)
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error (Unix.error_message e)))

(* A blocking session socket: connect bounded by [timeout], then
   SO_RCVTIMEO/SO_SNDTIMEO armed with the same bound, so every later
   read and write of the session is bounded too. *)
let connect ~host ~port timeout =
  match connect_start ~host ~port with
  | Error e -> Error e
  | Ok (fd, pending) -> (
      let fail msg =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error msg
      in
      match
        if not pending then Ok ()
        else
          match Unix.select [] [ fd ] [] timeout with
          | _, [ _ ], _ -> (
              match Unix.getsockopt_error fd with
              | None -> Ok ()
              | Some e -> Error (Unix.error_message e))
          | _ -> Error "connect timeout"
      with
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
      | Error msg -> fail msg
      | Ok () ->
          Unix.clear_nonblock fd;
          (* Reads and writes past the deadline fail with EAGAIN, which
             the Wire reader surfaces as an error. *)
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
           with Unix.Unix_error _ -> ());
          Ok fd)

(* One bounded request/reply session: read the greeting, then one reply
   line per request line, then [quit].  Any timeout, short read or
   malformed greeting fails the whole call. *)
let rpc ?(timeout = 1.0) ~host ~port lines =
  match connect ~host ~port timeout with
  | Error e -> Error e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let r = Wire.make_reader fd in
          let read () =
            match Wire.read_line r with
            | `Line l -> Some l
            | `Eof | `Too_long | `Error _ -> None
          in
          match read () with
          | None -> Error "no greeting"
          | Some greeting when not (String.length greeting >= 4 && String.sub greeting 0 4 = "e2e-")
            ->
              Error (Printf.sprintf "unexpected greeting %S" greeting)
          | Some _ -> (
              match
                List.fold_left
                  (fun acc line ->
                    match acc with
                    | Error _ as e -> e
                    | Ok replies -> (
                        match Wire.write_all fd (line ^ "\n") with
                        | exception Unix.Unix_error (e, _, _) ->
                            Error (Unix.error_message e)
                        | () -> (
                            match read () with
                            | None -> Error "connection closed mid-session"
                            | Some reply -> Ok (reply :: replies))))
                  (Ok []) lines
              with
              | Error _ as e -> e
              | Ok replies ->
                  (try Wire.write_all fd "quit\n" with Unix.Unix_error _ -> ());
                  Ok (List.rev replies)))

let probe ?(timeout = 1.0) ~host ~port () =
  match rpc ~timeout ~host ~port [ "ping" ] with
  | Ok [ reply ] -> String.length reply >= 4 && String.sub reply 0 4 = "pong"
  | Ok _ | Error _ -> false

(* ------------------------------------------------------------------ *)

type checker = {
  mutable stop : bool;
  mu : Mutex.t;
  thread : Thread.t option ref;  (* set right after create *)
}

let stopped c =
  Mutex.lock c.mu;
  let s = c.stop in
  Mutex.unlock c.mu;
  s

(* The checker loop sleeps in short slices so [stop] takes effect
   promptly without platform condition-timedwait support. *)
let rec nap c remaining =
  if (not (stopped c)) && remaining > 0. then begin
    let slice = Float.min remaining 0.05 in
    Unix.sleepf slice;
    nap c (remaining -. slice)
  end

let start ?(interval = 1.0) ?(timeout = 1.0) ?on_event registry =
  let c = { stop = false; mu = Mutex.create (); thread = ref None } in
  let loop () =
    while not (stopped c) do
      List.iter
        (fun (id, _, _) ->
          if not (stopped c) then
            match Registry.parse_id id with
            | None -> ()
            | Some (host, port) -> (
                let since =
                  Option.map (fun e -> e.Registry.reports) (Registry.find_opt registry id)
                in
                let ok = probe ~timeout ~host ~port () in
                match Registry.note_probe ?since registry id ~ok with
                | (`Died | `Revived) as ev ->
                    Option.iter (fun f -> f id ev) on_event
                | `Unchanged | `Unknown -> ()))
        (Registry.snapshot registry);
      nap c interval
    done
  in
  c.thread := Some (Thread.create loop ());
  c

let stop c =
  Mutex.lock c.mu;
  c.stop <- true;
  Mutex.unlock c.mu;
  Option.iter Thread.join !(c.thread)
