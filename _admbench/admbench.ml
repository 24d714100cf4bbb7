(* The benchmark's OCaml side; run.py drives it.

   admbench load --workload W --seed N --seconds S --out FILE
                 (--addr HOST:PORT | --shards HOST:PORT,...)
                 [--ping HOST:PORT] [--dispatcher HOST:PORT] [--seed-only]
                 [--log LOG]
       Seed, then drive workload W at a running server, dispatcher or
       shard set for S seconds; check every reply against the sequential
       reference interpreter (or, with --log, write the reply log to LOG
       for a later check); write raw samples and counts to FILE.

   admbench check --workload W --seed N --logs LOG,... --out FILE
       Check reply logs of runs of workload W on seed N against the
       sequential reference interpreter, with one replay for them all.

   admbench layers --workload W --seed N --seconds S --cache C --jobs J
                   --shards HOST:PORT,... --spans FILE --out FILE
       The traced in-process replay of workload W, with the shops
       partitioned over the given shards (see layers.ml). *)

open Admlib
module Json = E2e_obs.Json

let addr s =
  match String.rindex_opt s ':' with
  | Some i -> (String.sub s 0 i, int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> raise (Arg.Bad ("want HOST:PORT, got " ^ s))

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and out = ref "" in
  let target = ref None and ping = ref None and dispatcher = ref None and seed_only = ref false in
  let cache = ref 4096 and jobs = ref 1 and spans = ref "" in
  let log = ref None and logs = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--out", Arg.Set_string out, "FILE");
      ("--addr", Arg.String (fun s -> target := Some (Client.Direct (addr s))), "HOST:PORT");
      ( "--shards",
        Arg.String
          (fun s -> target := Some (Client.Sharded (List.map addr (String.split_on_char ',' s)))),
        "HOST:PORT,..." );
      ("--ping", Arg.String (fun s -> ping := Some (addr s)), "HOST:PORT");
      ("--dispatcher", Arg.String (fun s -> dispatcher := Some (addr s)), "HOST:PORT");
      ("--seed-only", Arg.Set seed_only, "");
      ("--cache", Arg.Set_int cache, "N");
      ("--jobs", Arg.Set_int jobs, "N");
      ("--spans", Arg.Set_string spans, "FILE");
      ("--log", Arg.String (fun s -> log := Some s), "LOG");
      ("--logs", Arg.String (fun s -> logs := String.split_on_char ',' s), "LOG,...");
    ]
  in
  let usage = "admbench (load|layers|check) OPTIONS" in
  Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage;
  let kind =
    match Workload.of_name !workload with
    | Some k -> k
    | None ->
        prerr_endline ("admbench: unknown workload " ^ !workload);
        exit 2
  in
  if !out = "" then (prerr_endline "admbench: --out is required"; exit 2);
  let result =
    match mode with
    | "load" -> (
        match !target with
        | None ->
            prerr_endline "admbench: load needs --addr or --shards";
            exit 2
        | Some target ->
            Client.run ~kind ~seed:!seed ~seconds:!seconds ~target ~seed_only:!seed_only
              ~ping:!ping ~dispatcher:!dispatcher ~log:!log)
    | "layers" -> (
        match !target with
        | Some (Client.Sharded shards) ->
            Layers.run ~kind ~seed:!seed ~seconds:!seconds ~cache_capacity:!cache ~jobs:!jobs
              ~shards ~spans_out:!spans
        | _ ->
            prerr_endline "admbench: layers needs --shards";
            exit 2)
    | "check" ->
        Json.List
          (List.map
             (fun (checked, mismatches, first) ->
               Json.Obj
                 [
                   ("checked", Json.int checked);
                   ("mismatches", Json.int mismatches);
                   ("first_mismatch", match first with None -> Json.Null | Some s -> Json.Str s);
                 ])
             (Client.check_logs kind ~seed:!seed (List.map Client.read_log !logs)))
    | _ ->
        prerr_endline usage;
        exit 2
  in
  Out_channel.with_open_text !out (fun oc -> output_string oc (Json.to_string result))
