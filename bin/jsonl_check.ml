(* Validate a JSONL file: every line must parse as a JSON value, and the
   file must contain at least one record.  Used by `make check` to verify
   the metrics files the experiment drivers emit.

   With --trace the file is additionally validated as a request-trace
   stream (e2e-loadgen/e2e-serve --trace): every trace record must carry
   a request id, a known stage, a non-negative duration, and appear in
   canonical stage order with per-request stage durations tiling the
   end-to-end latency; every opened request must reach its "done"
   record.

   With --bench each record is validated as an e2e-loadgen point: a
   [config] object naming a known topology, a workload and positive
   requests/connections/pipeline (plus positive drainers for a server,
   positive shards and upstream_conns for a cluster), a [host] object
   with a positive nproc, an OCaml version and a commit, and non-negative
   completed, duration_s, requests_per_sec, latency_ms.p50 and
   latency_ms.p99.

   Usage: jsonl_check [--trace|--bench] FILE...
   (exit 0 iff every file is well-formed) *)

module Schema = E2e_serve.Rtrace.Schema
module Json = E2e_obs.Json

(* --bench: structural checks over one loadgen point. *)

let num_field ?(min = 0.) obj name =
  match Json.member name obj with
  | Some (Json.Num v) when v >= min -> Ok v
  | Some (Json.Num v) -> Error (Printf.sprintf "%s = %g out of range" name v)
  | Some _ -> Error (Printf.sprintf "%s is not a number" name)
  | None -> Error (Printf.sprintf "missing field %s" name)

let check_bench complain json =
  let fields ?min ?(prefix = "") obj names =
    List.iter
      (fun name ->
        match num_field ?min obj name with
        | Ok _ -> ()
        | Error msg -> complain (prefix ^ msg))
      names
  in
  let str obj name =
    match Json.member name obj with
    | Some (Json.Str s) -> Some s
    | _ -> None
  in
  (match Json.member "config" json with
  | Some (Json.Obj _ as c) ->
      let topology_fields =
        match str c "topology" with
        | Some "inproc" -> []
        | Some "server" -> [ "drainers" ]
        | Some "cluster" -> [ "shards"; "upstream_conns" ]
        | _ -> complain "config.topology missing or unknown"; []
      in
      if str c "workload" = None then complain "config.workload missing or not a string";
      fields ~min:1. ~prefix:"config." c
        ([ "requests"; "connections"; "pipeline" ] @ topology_fields)
  | Some _ -> complain "config is not an object"
  | None -> complain "missing field config");
  (match Json.member "host" json with
  | Some (Json.Obj _ as h) ->
      fields ~min:1. ~prefix:"host." h [ "nproc" ];
      if str h "ocaml" = None then complain "host.ocaml missing or not a string";
      if str h "commit" = None then complain "host.commit missing or not a string"
  | Some _ -> complain "host is not an object"
  | None -> complain "missing field host");
  fields json [ "completed"; "duration_s"; "requests_per_sec" ];
  match Json.member "latency_ms" json with
  | Some (Json.Obj _ as l) -> fields ~prefix:"latency_ms." l [ "p50"; "p99" ]
  | _ -> complain "latency_ms missing or not an object"

let check_file ~trace ~bench path =
  let ic = open_in path in
  let records = ref 0 in
  let trace_records = ref 0 in
  let bad = ref 0 in
  let line_no = ref 0 in
  let v = Schema.validator () in
  let complain msg = incr bad; Printf.eprintf "%s:%d: %s\n" path !line_no msg in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then begin
         incr records;
         match E2e_obs.Json.of_string line with
         | Error msg -> complain ("invalid JSON: " ^ msg)
         | Ok json ->
             if bench then check_bench complain json;
             if trace then begin
               match Schema.of_json json with
               | Error msg -> complain msg
               | Ok None -> ()
               | Ok (Some r) -> (
                   incr trace_records;
                   match Schema.feed v r with
                   | Ok () -> ()
                   | Error msg -> complain msg)
             end
       end
     done
   with End_of_file -> ());
  close_in ic;
  if trace then begin
    (match Schema.check_closed v with
    | Ok () -> ()
    | Error msg ->
        incr bad;
        Printf.eprintf "%s: %s\n" path msg);
    if !trace_records = 0 then begin
      incr bad;
      Printf.eprintf "%s: no request-trace records\n" path
    end
  end;
  if !records = 0 then begin
    Printf.eprintf "%s: no JSON records\n" path;
    false
  end
  else if !bad > 0 then false
  else begin
    if trace then
      Printf.printf "%s: %d well-formed JSONL records, %d traced requests\n" path
        !records (Schema.completed v)
    else
      Printf.printf "%s: %d well-formed JSONL record%s\n" path !records
        (if !records = 1 then "" else "s");
    true
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let trace = List.mem "--trace" args in
  let bench = List.mem "--bench" args in
  let files = List.filter (fun a -> a <> "--trace" && a <> "--bench") args in
  if files = [] then begin
    prerr_endline "usage: jsonl_check [--trace|--bench] FILE...";
    exit 2
  end;
  let ok =
    List.fold_left (fun acc f -> check_file ~trace ~bench f && acc) true files
  in
  exit (if ok then 0 else 1)
