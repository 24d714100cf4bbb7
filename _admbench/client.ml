(* The load process: one thread drives every connection from a single
   [Unix.select] loop, so the client side never uses more threads than
   the host has cores.  It seeds, measures, then checks every reply
   against the sequential reference interpreter. *)

module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Protocol = E2e_serve.Protocol
module Wire = E2e_serve.Wire
module Registry = E2e_cluster.Registry
module Json = E2e_obs.Json

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                 *)

type cause = Overloaded | Unavailable | Internal | Transport | No_reply

let cause_name = function
  | Overloaded -> "overloaded"
  | Unavailable -> "shard-unavailable"
  | Internal -> "internal"
  | Transport -> "transport"
  | No_reply -> "no-reply"

let causes = [ Overloaded; Unavailable; Internal; Transport; No_reply ]

(* A reply that means the service did not do the work.  A request error
   about the request itself ([error shop=S unknown shop], say) is a
   correct answer, not a failure. *)
let classify line =
  match Protocol.cut_word line with
  | "overloaded", _ -> Some Overloaded
  | "error", rest -> (
      let word, after = Protocol.cut_word rest in
      let word =
        if String.starts_with ~prefix:"shop=" word then fst (Protocol.cut_word after) else word
      in
      match word with
      | "shard-unavailable" -> Some Unavailable
      | "internal" -> Some Internal
      | _ -> None)
  | _ -> None

let is_decision line =
  match fst (Protocol.cut_word line) with
  | "admitted" | "rejected" | "undecided" -> true
  | _ -> false

(* Which of [shards] owns each shop: the index of the shard the
   dispatcher's registry routes it to while every shard is live. *)
let router shards =
  let reg = Registry.create shards in
  let index = List.mapi (fun i (host, port) -> (Registry.id_of ~host ~port, i)) shards in
  fun shop ->
    match Registry.route reg shop with Some e -> List.assoc e.Registry.id index | None -> 0

(* ------------------------------------------------------------------ *)
(* Sockets                                                            *)

type req = {
  request : Admission.request;
  seed : bool;
  sent : float;
  mutable recv : float;  (** [nan] until answered. *)
  mutable failed : cause option;
  mutable digest : string;
  mutable head : string;
  mutable bytes : int;
}

type sock = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (** Bytes of a partly received line. *)
  awaiting : req Queue.t;
  mutable greeted : bool;
  mutable alive : bool;
}

let connect (host, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd; pending = Buffer.create 4096; awaiting = Queue.create (); greeted = false; alive = true }

let chunk = Bytes.create 65536

(* Read what is available and hand every complete line to [on_line];
   the greeting line is swallowed.  [false] on EOF or a read error. *)
let read_lines s on_line =
  match Unix.read s.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | 0 -> false
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes s.pending chunk !start (i - !start);
          let line = Buffer.contents s.pending in
          Buffer.clear s.pending;
          start := i + 1;
          if s.greeted then on_line line else s.greeted <- true
        end
      done;
      Buffer.add_subbytes s.pending chunk !start (n - !start);
      true

(* One blocking request/reply exchange on an otherwise idle socket. *)
let rpc s line =
  Wire.write_all s.fd (line ^ "\n");
  let reply = ref None in
  while !reply = None && s.alive do
    if not (read_lines s (fun l -> reply := Some l)) then s.alive <- false
  done;
  Option.value ~default:"" !reply

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)

type conn = {
  socks : sock array;
  route : string -> int;  (** Shop -> index into [socks]. *)
  gen : Workload.gen;
  mutable seeds : Admission.request list;
  mutable log : req list;  (** Every request sent, most recent first. *)
  mutable inflight : int;
  mutable free : int;  (** Measured phase: free window slots. *)
}

let alive c = Array.for_all (fun s -> s.alive) c.socks

let fail_sock c s cause =
  s.alive <- false;
  Queue.iter
    (fun r ->
      r.failed <- Some cause;
      c.inflight <- c.inflight - 1)
    s.awaiting;
  Queue.clear s.awaiting

let send c ~seed request =
  let s = c.socks.(c.route (Batcher.shop_of request)) in
  let r =
    { request; seed; sent = Unix.gettimeofday (); recv = nan; failed = None; digest = "";
      head = ""; bytes = 0 }
  in
  c.log <- r :: c.log;
  c.inflight <- c.inflight + 1;
  Queue.push r s.awaiting;
  try Wire.write_all s.fd (Protocol.render_request request ^ "\n")
  with Unix.Unix_error _ -> fail_sock c s Transport

let on_reply c r line =
  r.recv <- Unix.gettimeofday ();
  r.failed <- classify line;
  r.digest <- Digest.string line;
  r.head <- String.sub line 0 (min 160 (String.length line));
  r.bytes <- String.length line + 1;
  c.inflight <- c.inflight - 1;
  c.free <- c.free + 1

(* A side connection sending [line] every [interval] seconds while the
   load runs, one outstanding at a time. *)
type probe = {
  psock : sock;
  line : string;
  interval : float;
  mutable next_at : float;
  mutable out_since : float option;
  on_probe : rtt:float -> string -> unit;
}

(* Drive every connection and probe until [stop ()], sending [take c]
   while [ready c]. *)
let pump conns probes ~ready ~take ~stop =
  while not (stop ()) do
    Array.iter
      (fun c ->
        while alive c && ready c do
          take c
        done)
      conns;
    let wake = ref (Unix.gettimeofday () +. 0.05) in
    List.iter
      (fun p ->
        let now = Unix.gettimeofday () in
        if p.psock.alive && p.out_since = None then
          if p.next_at <= now then begin
            p.out_since <- Some now;
            try Wire.write_all p.psock.fd (p.line ^ "\n")
            with Unix.Unix_error _ -> p.psock.alive <- false
          end
          else wake := Float.min !wake p.next_at)
      probes;
    let handlers =
      Array.fold_left
        (fun acc c ->
          Array.fold_left
            (fun acc s ->
              if s.alive then
                ( s.fd,
                  fun () ->
                    let on_line line =
                      if not (Queue.is_empty s.awaiting) then on_reply c (Queue.pop s.awaiting) line
                    in
                    if not (read_lines s on_line)
                    then fail_sock c s Transport )
                :: acc
              else acc)
            acc c.socks)
        [] conns
    in
    let handlers =
      List.fold_left
        (fun acc p ->
          if p.psock.alive then
            ( p.psock.fd,
              fun () ->
                let ok =
                  read_lines p.psock (fun line ->
                      let now = Unix.gettimeofday () in
                      Option.iter (fun t -> p.on_probe ~rtt:(now -. t) line) p.out_since;
                      p.out_since <- None;
                      p.next_at <- now +. p.interval)
                in
                if not ok then p.psock.alive <- false )
            :: acc
          else acc)
        handlers probes
    in
    let timeout = Float.max 0. (!wake -. Unix.gettimeofday ()) in
    match Unix.select (List.map fst handlers) [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ -> List.iter (fun fd -> (List.assoc fd handlers) ()) ready
  done

(* ------------------------------------------------------------------ *)
(* The run                                                            *)

type target =
  | Direct of (string * int)  (** One server or dispatcher. *)
  | Sharded of (string * int) list
      (** Straight to the shards, routing each shop the way the
          dispatcher's registry would. *)

let seed_window = 4
let drain_timeout = 30.

let make_conns target gens =
  Array.map
    (fun gen ->
      let socks, route =
        match target with
        | Direct addr -> ([| connect addr |], fun _ -> 0)
        | Sharded addrs -> (Array.of_list (List.map connect addrs), router addrs)
      in
      { socks; route; gen; seeds = gen.Workload.seed_reqs; log = []; inflight = 0; free = 0 })
    gens

let all_idle conns = Array.for_all (fun c -> c.inflight = 0 || not (alive c)) conns

(* Fail whatever is still unanswered once the phase gives up waiting. *)
let abandon conns =
  Array.iter
    (fun c ->
      Array.iter
        (fun s ->
          Queue.iter (fun r -> r.failed <- Some No_reply) s.awaiting;
          Queue.clear s.awaiting)
        c.socks;
      c.inflight <- 0)
    conns

let seed_phase conns =
  let t0 = Unix.gettimeofday () in
  pump conns []
    ~ready:(fun c -> c.seeds <> [] && c.inflight < seed_window)
    ~take:(fun c ->
      match c.seeds with
      | r :: rest ->
          c.seeds <- rest;
          send c ~seed:true r
      | [] -> ())
    ~stop:(fun () ->
      (Array.for_all (fun c -> c.seeds = [] || not (alive c)) conns && all_idle conns)
      || Unix.gettimeofday () -. t0 > drain_timeout);
  abandon conns;
  Unix.gettimeofday () -. t0

(* Closed loop: each connection keeps its window full until [seconds]
   have passed, then waits for the replies still in flight. *)
let measure_phase kind ~seconds conns probes =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  Array.iter (fun c -> c.free <- Workload.window kind) conns;
  pump conns probes
    ~ready:(fun c -> c.free > 0 && Unix.gettimeofday () < deadline)
    ~take:(fun c ->
      c.free <- c.free - 1;
      send c ~seed:false (c.gen.Workload.next ()))
    ~stop:(fun () ->
      let now = Unix.gettimeofday () in
      (now >= deadline && all_idle conns) || now >= deadline +. drain_timeout);
  abandon conns;
  t0

(* Replay each connection's stream through the sequential reference
   interpreter ([Admission.apply]), skipping requests that failed: those
   never touched the service's state.  The reference gets its own cache,
   large enough never to evict: cached and uncached decisions agree by
   construction, and re-solving every resubmission would make the check
   cost more than the run.  Returns (checked, mismatches, first
   mismatch). *)
let check conns =
  let checked = ref 0 and mismatches = ref 0 and first = ref None in
  let cache = E2e_serve.Cache.create ~capacity:(1 lsl 20) in
  Array.iter
    (fun c ->
      ignore
        (List.fold_left
           (fun state r ->
             if Float.is_nan r.recv || r.failed <> None then state
             else begin
               let state, reply = Admission.apply ~cache state r.request in
               let expected = Protocol.render_reply (Batcher.Reply reply) in
               incr checked;
               if Digest.string expected <> r.digest then begin
                 incr mismatches;
                 if !first = None then
                   first :=
                     Some
                       (Printf.sprintf "request %S: got %S, reference %S"
                          (Protocol.render_request r.request) r.head
                          (String.sub expected 0 (min 160 (String.length expected))))
               end;
               state
             end)
           Admission.empty (List.rev c.log)))
    conns;
  (!checked, !mismatches, !first)

(* Reply logs, for checking several runs of one seeded stream with a
   single reference replay: one line per request a connection sent, in
   send order, seeds first — "<conn> <hex digest of the reply line>", or
   "<conn> -" for a failed request. *)
let write_log path conns =
  Out_channel.with_open_text path (fun oc ->
      Array.iteri
        (fun ci c ->
          List.iter
            (fun r ->
              let ok = r.failed = None && not (Float.is_nan r.recv) in
              Printf.fprintf oc "%d %s\n" ci (if ok then Digest.to_hex r.digest else "-"))
            (List.rev c.log))
        conns)

(* Per connection, the logged replies in send order; [None] = failed. *)
let read_log path =
  let per = Array.make Workload.connections [] in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match String.split_on_char ' ' line with
            | [ c; d ] ->
                let c = int_of_string c in
                per.(c) <- (if d = "-" then None else Some (Digest.from_hex d)) :: per.(c)
            | _ -> failwith ("bad reply log line: " ^ line));
            go ()
      in
      go ());
  Array.map (fun l -> Array.of_list (List.rev l)) per

(* Check every log of one workload and seed against the sequential
   reference.  Each connection sends a prefix of one fixed stream, so the
   logs whose requests failed at the same positions (normally none) share
   one replay, as long as the longest of them; failed requests are left
   out of the replay, since they never touched the service's state.
   Returns, per log, (checked, mismatches, first mismatch). *)
let check_logs kind ~seed logs =
  let logs = Array.of_list logs in
  let checked = Array.make (Array.length logs) 0
  and mismatches = Array.make (Array.length logs) 0
  and first = Array.make (Array.length logs) None in
  for c = 0 to Workload.connections - 1 do
    let failed_at i =
      List.filter_map Fun.id
        (List.mapi (fun p d -> if d = None then Some p else None) (Array.to_list logs.(i).(c)))
    in
    let groups = Hashtbl.create 4 in
    Array.iteri
      (fun i _ ->
        let key = failed_at i in
        Hashtbl.replace groups key (i :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
      logs;
    Hashtbl.iter
      (fun failed members ->
        let len = List.fold_left (fun acc i -> max acc (Array.length logs.(i).(c))) 0 members in
        let gen = (Workload.generators kind ~seed).(c) in
        let seeds = ref gen.Workload.seed_reqs in
        let take () =
          match !seeds with
          | r :: rest ->
              seeds := rest;
              r
          | [] -> gen.Workload.next ()
        in
        let cache = E2e_serve.Cache.create ~capacity:(1 lsl 20) in
        let state = ref Admission.empty in
        for p = 0 to len - 1 do
          let request = take () in
          if not (List.mem p failed) then begin
            let st, reply = Admission.apply ~cache !state request in
            state := st;
            let expected = Protocol.render_reply (Batcher.Reply reply) in
            let digest = Digest.string expected in
            List.iter
              (fun i ->
                if p < Array.length logs.(i).(c) then begin
                  checked.(i) <- checked.(i) + 1;
                  if logs.(i).(c).(p) <> Some digest then begin
                    mismatches.(i) <- mismatches.(i) + 1;
                    if first.(i) = None then
                      first.(i) <-
                        Some
                          (Printf.sprintf "connection %d request %S: reply differs from reference %S" c
                             (Protocol.render_request request)
                             (String.sub expected 0 (min 160 (String.length expected))))
                  end
                end)
              members
          end
        done)
      groups
  done;
  List.init (Array.length logs) (fun i -> (checked.(i), mismatches.(i), first.(i)))

let floats l = Json.List (List.map (fun x -> Json.Num x) l)

(* The machine's (steal, total) CPU time in clock ticks, from the first
   line of /proc/stat: steal is time the hypervisor ran something else on
   this machine's CPUs.  Zeros where /proc/stat is not readable. *)
let cpu_ticks () =
  let ticks =
    try
      In_channel.with_open_text "/proc/stat" In_channel.input_line
      |> Option.map (fun l ->
             String.split_on_char ' ' l |> List.tl
             |> List.filter_map (fun w -> if w = "" then None else float_of_string_opt w))
      |> Option.value ~default:[]
    with Sys_error _ -> []
  in
  let total = List.fold_left ( +. ) 0. ticks in
  Json.List [ Json.Num (if List.length ticks > 7 then List.nth ticks 7 else 0.); Json.Num total ]

(* [cluster_upstream_pending{shard="h:p"} 3] -> 3 *)
let exposition_values prefix reply =
  String.split_on_char ';' reply
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix l then
           match String.rindex_opt l ' ' with
           | Some i -> float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
           | None -> None
         else None)

let stats_field reply key =
  String.split_on_char ' ' reply
  |> List.find_map (fun tok ->
         match String.split_on_char '=' tok with
         | [ k; v ] when k = key -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.

(* Without [log], the run checks its own replies; with it, it writes its
   reply log there for [check_logs] instead. *)
let run ~kind ~seed ~seconds ~target ~seed_only ~ping ~dispatcher ~log =
  let conns = make_conns target (Workload.generators kind ~seed) in
  let seed_s = seed_phase conns in
  let result = ref [ ("seed_s", Json.Num seed_s); ("ticks_seeded", cpu_ticks ()) ] in
  let add k v = result := (k, v) :: !result in
  if not seed_only then begin
    let rtts = ref [] and pending_max = ref 0. in
    let ping_probe =
      Option.map
        (fun addr ->
          { psock = connect addr; line = "ping"; interval = 0.005; next_at = 0.; out_since = None;
            on_probe = (fun ~rtt _ -> rtts := (rtt *. 1000.) :: !rtts) })
        ping
    in
    let disp_probe =
      Option.map
        (fun addr ->
          { psock = connect addr; line = "metrics"; interval = 0.2; next_at = 0.;
            out_since = None;
            on_probe =
              (fun ~rtt:_ reply ->
                List.iter
                  (fun v -> pending_max := Float.max !pending_max v)
                  (exposition_values "cluster_upstream_pending{" reply)) })
        dispatcher
    in
    let probes = List.filter_map Fun.id [ ping_probe; disp_probe ] in
    let t0 = measure_phase kind ~seconds conns probes in
    add "ticks_measured" (cpu_ticks ());
    (* Let an outstanding probe answer before the closing RPCs. *)
    List.iter
      (fun p ->
        while p.out_since <> None && p.psock.alive do
          if not (read_lines p.psock (fun _ -> p.out_since <- None)) then p.psock.alive <- false
        done)
      probes;
    Option.iter
      (fun p ->
        add "ping_rtt_ms" (floats !rtts);
        add "read_errors" (Json.Num (stats_field (rpc p.psock "stats") "read_errors")))
      ping_probe;
    Option.iter
      (fun p ->
        let stats = rpc p.psock "stats" in
        let routed = exposition_values "cluster_shard_routed_total{" (rpc p.psock "metrics") in
        let total = List.fold_left ( +. ) 0. routed in
        add "dispatcher"
          (Json.Obj
             [
               ("routed", Json.Num (stats_field stats "routed"));
               ("unavailable", Json.Num (stats_field stats "unavailable"));
               ("shard_pending_max", Json.Num !pending_max);
               ( "balance_max_share",
                 Json.Num (if total > 0. then List.fold_left Float.max 0. routed /. total else 0.)
               );
             ]))
      disp_probe;
    let measured =
      Array.to_list conns |> List.concat_map (fun c -> List.filter (fun r -> not r.seed) c.log)
    in
    let ok = List.filter (fun r -> r.failed = None && not (Float.is_nan r.recv)) measured in
    add "attempted" (Json.int (List.length measured));
    add "failed" (Json.int (List.length measured - List.length ok));
    add "failed_by_cause"
      (Json.Obj
         (List.map
            (fun cause ->
              ( cause_name cause,
                Json.int (List.length (List.filter (fun r -> r.failed = Some cause) measured)) ))
            causes));
    add "latency_ms" (floats (List.map (fun r -> 1000. *. (r.recv -. r.sent)) ok));
    (* The measured phase runs from its start to its last reply. *)
    add "measured_s" (Json.Num (List.fold_left (fun acc r -> Float.max acc (r.recv -. t0)) 0. ok));
    let decisions = List.filter (fun r -> is_decision r.head) ok in
    add "decisions" (Json.int (List.length decisions));
    add "undecided"
      (Json.int
         (List.length (List.filter (fun r -> fst (Protocol.cut_word r.head) = "undecided") decisions)));
    add "reply_bytes" (Json.int (List.fold_left (fun acc r -> acc + r.bytes) 0 ok))
  end;
  let seeds = Array.to_list conns |> List.concat_map (fun c -> List.filter (fun r -> r.seed) c.log) in
  add "seed_requests" (Json.int (List.length seeds));
  add "seed_failed"
    (Json.int (List.length (List.filter (fun r -> r.failed <> None || Float.is_nan r.recv) seeds)));
  Option.iter (fun path -> write_log path conns) log;
  if (not seed_only) && log = None then begin
    let checked, mismatches, first = check conns in
    add "checked" (Json.int checked);
    add "mismatches" (Json.int mismatches);
    add "first_mismatch" (match first with None -> Json.Null | Some s -> Json.Str s)
  end;
  Array.iter (fun c -> Array.iter (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) c.socks) conns;
  Json.Obj (List.rev !result)
