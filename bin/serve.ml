(* Admission-control scheduling service front end.

   e2e-serve --stdio < requests.txt          # pipelined replay transport
   e2e-serve --tcp 7070 -j 4 --cache 1024    # concurrent TCP server

   Both transports are one select loop on the main thread (see the
   Server module).  One request per line in, one reply per request out
   (see the Protocol module / README "Serving" for the grammar).  The engine layers are
   deterministic: the same request stream produces a byte-identical
   reply stream at any -j value; over TCP the guarantee is
   per-connection (connections on disjoint shop namespaces). *)

open Cmdliner
module Batcher = E2e_serve.Batcher
module Server = E2e_serve.Server
module Admission = E2e_serve.Admission
module Pool = E2e_exec.Pool
module Obs = E2e_obs.Obs
module Json = E2e_obs.Json

let stdio_arg =
  let doc = "Serve one session over stdin/stdout (the default transport)." in
  Arg.(value & flag & info [ "stdio" ] ~doc)

let tcp_arg =
  let doc = "Serve TCP connections on $(docv) (default transport: stdin/stdout)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Address or hostname to bind the TCP listener to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let max_conns_arg =
  let doc =
    "Stop accepting after $(docv) total TCP connections, and exit once they have all ended \
     (for scripted runs)."
  in
  Arg.(value & opt (some int) None & info [ "max-connections" ] ~docv:"N" ~doc)

let accept_pool_arg =
  let doc =
    "Simultaneous TCP connections: the server's loop stops accepting while $(docv) are open."
  in
  Arg.(value & opt int 4 & info [ "accept-pool" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Unwritten replies per connection past which the loop stops reading that connection \
     (other connections are still served)."
  in
  Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc)

let drainers_arg =
  let doc =
    "Stripes for the TCP transport: the queue is sharded by shop (same shop, same stripe) \
     into $(docv) batchers, each with its own solver cache, and the server's one loop steps \
     every non-empty stripe until its queue is empty.  Per-connection reply streams are \
     byte-identical at every value.  Requires --tcp."
  in
  Arg.(value & opt int 1 & info [ "drainers"; "stripes" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Pending-request queue bound; submissions past it are answered $(b,overloaded)." in
  Arg.(value & opt int Batcher.default_config.Batcher.queue_capacity
       & info [ "queue" ] ~docv:"N" ~doc)

let batch_arg =
  let doc =
    "Upper bound on the requests in one batch.  The loop steps as soon as it has read what \
     is ready and never waits for a batch to fill: a batch is what one read of the ready \
     connections queued on a stripe, capped at $(docv) and cut at a repeated shop."
  in
  Arg.(value & opt int Batcher.default_config.Batcher.batch & info [ "batch" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Canonical solver-cache capacity in entries; $(b,0) disables the cache." in
  Arg.(value & opt int Batcher.default_config.Batcher.cache_capacity
       & info [ "cache"; "cache-capacity" ] ~docv:"N" ~doc)

let budget_arg =
  let doc =
    "Per-request deterministic solve budget: portfolio strategies attempted after Algorithm \
     H fails.  Unbounded when omitted."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains each batch's solves fan out over.  Defaults to $(b,E2E_JOBS) (capped at \
     the runtime's recommended domain count) or 1.  Replies are byte-identical for every \
     value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_schedules_arg =
  let doc = "Omit the $(b,schedule=) field from admitted replies." in
  Arg.(value & flag & info [ "no-schedules" ] ~doc)

let stats_arg =
  let doc = "Print telemetry counters to stderr on exit." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let metrics_arg =
  let doc = "Write one JSON object with every telemetry counter/gauge/histogram to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let register_arg =
  let doc =
    "Register this shard with an e2e-dispatch front end at $(docv) (host:port) once the \
     TCP listener is ready, via the $(b,ctl/1) control protocol, and deregister on clean \
     exit.  Requires --tcp."
  in
  Arg.(value & opt (some string) None & info [ "register" ] ~docv:"ADDR" ~doc)

let advertise_arg =
  let doc =
    "Address to register as (what the dispatcher should connect back to).  Defaults to \
     the bound host:port — override when the shard is reached through a different \
     address than it binds."
  in
  Arg.(value & opt (some string) None & info [ "advertise" ] ~docv:"ADDR" ~doc)

let trace_arg =
  let doc =
    "Write one JSONL request-trace record per pipeline stage per request to $(docv) \
     (analyse with e2e-trace).  Replies are unaffected: the reply stream is byte-identical \
     with tracing on or off."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Shard-side registration: one ctl/1 round-trip against the dispatcher
   when the listener comes up, another on clean exit.  Best-effort — a
   shard that cannot reach its dispatcher still serves direct clients,
   and the dispatcher's status checker would discover a vanished shard
   anyway. *)
let ctl_rpc ~register line =
  match E2e_cluster.Registry.parse_id register with
  | None ->
      Printf.eprintf "e2e-serve: bad --register address %S (want host:port)\n%!" register
  | Some (host, port) -> (
      match E2e_cluster.Health.rpc ~host ~port [ line ] with
      | Ok [ reply ] -> Printf.eprintf "e2e-serve: %s -> %s\n%!" line reply
      | Ok _ -> ()
      | Error e -> Printf.eprintf "e2e-serve: %s failed: %s\n%!" line e)

let run stdio tcp host max_conns accept_pool window drainers queue batch cache budget jobs
    no_schedules stats metrics trace register advertise =
  if stdio && tcp <> None then begin
    prerr_endline "e2e-serve: --stdio and --tcp are mutually exclusive";
    exit 2
  end;
  if register <> None && tcp = None then begin
    prerr_endline "e2e-serve: --register requires --tcp";
    exit 2
  end;
  if drainers < 1 then begin
    prerr_endline "e2e-serve: --drainers must be >= 1";
    exit 2
  end;
  if drainers > 1 && tcp = None then begin
    prerr_endline "e2e-serve: --drainers requires --tcp";
    exit 2
  end;
  let jobs = Pool.resolve_jobs jobs in
  if stats || metrics <> None then begin
    Obs.set_stats true;
    Obs.reset_metrics ()
  end;
  let budget =
    match budget with None -> Admission.Unbounded | Some k -> Admission.Strategies k
  in
  let config =
    { Batcher.queue_capacity = queue; batch; budget; jobs; cache_capacity = cache }
  in
  let schedules = not no_schedules in
  let trace_oc =
    match trace with
    | None -> None
    | Some path ->
        let oc = Out_channel.open_text path in
        E2e_serve.Rtrace.set_writer
          (Some
             (fun line ->
               Out_channel.output_string oc line;
               Out_channel.output_char oc '\n'));
        Some oc
  in
  let stripes = E2e_serve.Stripes.create ~config ~stripes:drainers () in
  (match tcp with
  | None -> Server.serve_stdio ~schedules ~window stripes
  | Some port ->
      let advertised = ref None in
      let ready p =
        Printf.eprintf "e2e-serve: listening on %s:%d\n%!" host p;
        match register with
        | None -> ()
        | Some r ->
            let addr =
              match advertise with
              | Some a -> a
              | None -> E2e_cluster.Registry.id_of ~host ~port:p
            in
            advertised := Some addr;
            ctl_rpc ~register:r (Printf.sprintf "ctl/1 register %s" addr)
      in
      Server.serve_tcp ~schedules ~host ?max_connections:max_conns ~accept_pool ~window
        ~ready ~port stripes;
      match (register, !advertised) with
      | Some r, Some addr -> ctl_rpc ~register:r (Printf.sprintf "ctl/1 deregister %s" addr)
      | _ -> ());
  (match trace_oc with
  | None -> ()
  | Some oc ->
      E2e_serve.Rtrace.set_writer None;
      Out_channel.close oc);
  (match metrics with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Obs.metrics_json ()));
          output_char oc '\n'));
  if stats then Format.eprintf "%a@." Obs.pp_metrics ()

let () =
  let doc = "Online admission-control scheduling service over flow-shop workloads" in
  let info = Cmd.info "e2e-serve" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ stdio_arg $ tcp_arg $ host_arg $ max_conns_arg $ accept_pool_arg
      $ window_arg $ drainers_arg $ queue_arg $ batch_arg $ cache_arg
      $ budget_arg $ jobs_arg $ no_schedules_arg $ stats_arg $ metrics_arg $ trace_arg
      $ register_arg $ advertise_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
