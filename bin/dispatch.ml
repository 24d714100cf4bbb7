(* Cluster dispatcher front end.

   e2e-dispatch --port 7070 --shards 127.0.0.1:7071,127.0.0.1:7072

   Clients speak the ordinary e2e-serve/1 line protocol to the
   dispatcher; requests are routed to shards by a deterministic hash
   of the shop name (all requests for a shop land on the same shard),
   and a status checker fails shop traffic over to the next live shard
   when one dies.  Shards may also join at runtime with
   `e2e-serve --tcp PORT --register DISPATCHER` (the ctl/1 control
   protocol).  One select loop on one thread serves every client and
   every upstream lane. *)

open Cmdliner
module Dispatcher = E2e_cluster.Dispatcher
module Registry = E2e_cluster.Registry

let port_arg =
  let doc = "Port to serve clients on ($(b,0) binds an ephemeral port)." in
  Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Address or hostname to bind the listener to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let shards_arg =
  let doc =
    "Comma-separated static shard addresses (host:port,...).  More shards may register \
     dynamically over ctl/1."
  in
  Arg.(value & opt string "" & info [ "shards" ] ~docv:"ADDRS" ~doc)

let probe_interval_arg =
  let doc = "Seconds between status-checker probe rounds." in
  Arg.(value & opt float 1.0 & info [ "probe-interval" ] ~docv:"SECS" ~doc)

let probe_timeout_arg =
  let doc = "Bound in seconds on shard probes, upstream connects and metrics RPCs." in
  Arg.(value & opt float 1.0 & info [ "probe-timeout" ] ~docv:"SECS" ~doc)

let fail_threshold_arg =
  let doc = "Consecutive failed probes before a shard is marked dead." in
  Arg.(value & opt int 3 & info [ "fail-threshold" ] ~docv:"K" ~doc)

let accept_pool_arg =
  let doc =
    "Clients served at once; further connections wait in the listen backlog until one \
     leaves."
  in
  Arg.(value & opt int 4 & info [ "accept-pool" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Unwritten replies per client connection after which the dispatcher stops reading \
     that client until some are written."
  in
  Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc)

let max_conns_arg =
  let doc = "Stop after $(docv) total client connections (for scripted runs)." in
  Arg.(value & opt (some int) None & info [ "max-connections" ] ~docv:"N" ~doc)

let upstream_conns_arg =
  let doc =
    "Pipelined upstream connections (lanes) per shard.  Each client connection keeps a \
     sticky lane per shard, so per-client reply order is preserved at any value."
  in
  Arg.(value & opt int 1 & info [ "upstream-conns" ] ~docv:"K" ~doc)

let parse_shards s =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun a -> a <> "")
    |> List.fold_left
         (fun acc a ->
           match (acc, Registry.parse_id a) with
           | Error _, _ -> acc
           | Ok _, None -> Error a
           | Ok l, Some hp -> Ok (hp :: l))
         (Ok [])
    |> Result.map List.rev

let run port host shards probe_interval probe_timeout fail_threshold accept_pool window
    max_conns upstream_conns =
  if upstream_conns < 1 then begin
    prerr_endline "e2e-dispatch: --upstream-conns must be >= 1";
    exit 2
  end;
  match parse_shards shards with
  | Error bad ->
      Printf.eprintf "e2e-dispatch: bad shard address %S (want host:port)\n%!" bad;
      exit 2
  | Ok shards ->
      let config =
        { Dispatcher.fail_threshold; probe_interval; probe_timeout;
          vnodes = Registry.default_vnodes; upstream_conns }
      in
      let t = Dispatcher.create ~config shards in
      Dispatcher.serve ~host ?max_connections:max_conns ~accept_pool ~window
        ~ready:(fun p ->
          Printf.eprintf "e2e-dispatch: listening on %s:%d (%d shard%s)\n%!" host p
            (List.length shards)
            (if List.length shards = 1 then "" else "s"))
        ~port t

let () =
  let doc = "Sharded front end for the e2e-serve admission service" in
  let info = Cmd.info "e2e-dispatch" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ port_arg $ host_arg $ shards_arg $ probe_interval_arg $ probe_timeout_arg
      $ fail_threshold_arg $ accept_pool_arg $ window_arg $ max_conns_arg
      $ upstream_conns_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
