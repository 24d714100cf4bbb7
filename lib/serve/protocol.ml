module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Schedule = E2e_schedule.Schedule

let version = "e2e-serve/1"
let greeting = version ^ " ready"

type item =
  | Hello of string
  | Request of Admission.request
  | Stats
  | Metrics
  | Ping
  | Quit
  | Blank

let is_shop_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_shop s = s <> "" && String.for_all is_shop_char s

let is_space = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false

(* First whitespace-delimited word and the (trimmed) remainder.  Any
   whitespace separates — a tab-separated [query<TAB>shop] must parse
   the same as the space-separated form, not as an unknown keyword. *)
let cut_word s =
  let s = String.trim s in
  let n = String.length s in
  let rec find i = if i >= n then None else if is_space s.[i] then Some i else find (i + 1) in
  match find 0 with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s (i + 1) (n - i - 1)))

(* The payload of submit/add is the Instance_io text format with ';'
   standing for newline, so multi-directive instances fit one framed
   line. *)
let unframe payload = String.map (function ';' -> '\n' | c -> c) payload

let parse_instance payload = Instance_io.parse (unframe payload)

(* An [add] payload extends a committed shop, so directives that
   (re)define shop structure — [visit], or anything else Instance_io
   might grow — must be refused, not forwarded: a whitelist, not a
   blacklist.  Comments and blank lines pass through (Instance_io skips
   them); every other line must lead with the [task] directive. *)
let parse_tasks payload =
  let text = unframe payload in
  let non_task =
    String.split_on_char '\n' text
    |> List.exists (fun line ->
           let line =
             match String.index_opt line '#' with
             | None -> line
             | Some i -> String.sub line 0 i
           in
           match cut_word line with ("" | "task"), _ -> false | _ -> true)
  in
  if non_task then Error "add payload must contain only task directives"
  else
    match Instance_io.parse text with
    | Error e -> Error e
    | Ok shop ->
        Ok
          (Array.to_list shop.Recurrence_shop.tasks
          |> List.map (fun (t : Task.t) -> (t.release, t.deadline, t.proc_times)))

let parse_request line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok Blank
  else
    let keyword, rest = cut_word line in
    match keyword with
    | "hello" -> Ok (Hello rest)
    | "stats" -> if rest = "" then Ok Stats else Error "stats takes no arguments"
    | "metrics" -> if rest = "" then Ok Metrics else Error "metrics takes no arguments"
    | "ping" -> if rest = "" then Ok Ping else Error "ping takes no arguments"
    | "quit" -> if rest = "" then Ok Quit else Error "quit takes no arguments"
    | "query" | "drop" ->
        let shop, extra = cut_word rest in
        if not (valid_shop shop) then
          Error (Printf.sprintf "%s expects a shop name ([A-Za-z0-9_.-]+)" keyword)
        else if extra <> "" then Error (Printf.sprintf "%s takes one argument" keyword)
        else if keyword = "query" then Ok (Request (Admission.Query { shop }))
        else Ok (Request (Admission.Drop { shop }))
    | "submit" -> (
        let shop, payload = cut_word rest in
        if not (valid_shop shop) then Error "submit expects: submit <shop> <instance>"
        else
          match parse_instance payload with
          | Ok instance -> Ok (Request (Admission.Submit { shop; instance }))
          | Error e -> Error e)
    | "add" -> (
        let shop, payload = cut_word rest in
        if not (valid_shop shop) then Error "add expects: add <shop> <tasks>"
        else
          match parse_tasks payload with
          | Ok tasks -> Ok (Request (Admission.Add { shop; tasks }))
          | Error e -> Error e)
    | "" -> Ok Blank
    | other -> Error (Printf.sprintf "unknown request %S" other)

(* Newlines of the Instance_io rendering become " ; " so the instance
   fits one framed request line; [parse_request] inverts this. *)
let frame text =
  String.trim text |> String.split_on_char '\n' |> List.map String.trim
  |> String.concat " ; "

let render_request = function
  | Admission.Submit { shop; instance } ->
      Printf.sprintf "submit %s %s" shop (frame (Instance_io.to_string instance))
  | Admission.Add { shop; tasks } ->
      let task_line (release, deadline, proc_times) =
        Printf.sprintf "task %s %s %s" (Rat.to_string release) (Rat.to_string deadline)
          (String.concat " " (Array.to_list (Array.map Rat.to_string proc_times)))
      in
      Printf.sprintf "add %s %s" shop (String.concat " ; " (List.map task_line tasks))
  | Admission.Query { shop } -> "query " ^ shop
  | Admission.Drop { shop } -> "drop " ^ shop

let render_schedule buf schedule = Schedule.add_csv buf ~sep:';' schedule

(* An admitted reply is written into a scratch buffer that its domain
   keeps between replies, then copied out once at its exact length: no
   per-reply buffer is sized, grown or thrown away.  A render takes the
   scratch out of its domain's slot (the take is no allocation and no
   call, so no other systhread of the domain runs in between) and puts
   it back after; a render that finds the slot empty meanwhile uses a
   fresh buffer.  A scratch grown past [scratch_keep] is not kept. *)
let scratch = Domain.DLS.new_key (fun () -> ref None)
let scratch_keep = 1 lsl 20

let render_reply ?(schedules = true) outcome =
  let head = Format.asprintf "%a" Batcher.pp_outcome outcome in
  match outcome with
  | Batcher.Reply
      (Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ })
    when schedules ->
      let slot = Domain.DLS.get scratch in
      let buf =
        match !slot with
        | Some buf ->
            slot := None;
            Buffer.clear buf;
            buf
        | None -> Buffer.create 4096
      in
      Buffer.add_string buf head;
      Buffer.add_string buf " schedule=";
      render_schedule buf schedule;
      let line = Buffer.contents buf in
      if Buffer.length buf <= scratch_keep then slot := Some buf;
      line
  | _ -> head

let render_hello ~requested =
  if requested = version then "ok " ^ version
  else Printf.sprintf "error unsupported version %S (this server speaks %s)" requested version

let sum_engines stripes f =
  Array.fold_left (fun acc b -> acc + f (Batcher.engine b)) 0 (Stripes.batchers stripes)

let n_shops stripes = sum_engines stripes (fun e -> List.length (Admission.shops e))

(* Every figure is the sum over stripes, so a one-stripe service (the
   stdio session) and a striped TCP server render the same format. *)
let render_stats stripes =
  let base =
    Printf.sprintf "stats pending=%d shops=%d tasks=%d" (Stripes.pending stripes)
      (n_shops stripes)
      (sum_engines stripes Admission.n_committed)
  in
  let base =
    match Stripes.cache_stats stripes with
    | None -> base ^ " cache=off"
    | Some { Cache.hits; misses; evictions; size } ->
        Printf.sprintf "%s cache_hits=%d cache_misses=%d cache_evictions=%d cache_size=%d"
          base hits misses evictions size
  in
  Printf.sprintf "%s read_errors=%d" base (Stripes.read_errors stripes)

(* The [metrics] reply: live batcher-derived exposition lines (always
   available, registry on or off) followed by the registry's own
   exposition.  The live names are chosen disjoint from any registry
   name's mangling, so the concatenation never repeats a sample. *)
let render_metrics stripes =
  let module Obs = E2e_obs.Obs in
  let line ?labels name v = Obs.exposition_line ?labels name v in
  let iline ?labels name v = line ?labels name (float_of_int v) in
  let svc = Stripes.service_stats stripes in
  let live =
    [
      iline "serve_queue_depth" (Stripes.pending stripes);
      iline "serve_committed_shops" (n_shops stripes);
      iline "serve_committed_tasks" (sum_engines stripes Admission.n_committed);
      iline "serve_submitted_total" svc.Batcher.submitted;
      iline "serve_backpressure_rejections_total" svc.Batcher.rejected_backpressure;
      iline "serve_batches_completed_total" svc.Batcher.batches;
      iline "serve_batched_requests_total" svc.Batcher.batched_requests;
      iline "serve_max_batch_size" svc.Batcher.max_batch;
      iline "serve_budget_exhaustions_total" svc.Batcher.budget_exhausted;
      iline "serve_verify_downgrades_total" svc.Batcher.verify_failures;
      iline "serve_internal_errors_total" svc.Batcher.internal_errors;
      iline "serve_stripes" (Stripes.count stripes);
      iline "serve_transport_read_errors_total" (Stripes.read_errors stripes);
    ]
    @ List.map
        (fun (shop, n) ->
          iline ~labels:[ ("shop", shop) ] "serve_shop_resident_tasks" n)
        svc.Batcher.resident
    @ (match Stripes.cache_stats stripes with
      | None -> []
      | Some { Cache.hits; misses; evictions; size } ->
          [
            iline "serve_cache_hits_total" hits;
            iline "serve_cache_misses_total" misses;
            iline "serve_cache_evictions_total" evictions;
            iline "serve_cache_size" size;
          ])
    @ List.concat_map
        (fun (shop, (admitted, rejected, undecided)) ->
          List.map
            (fun (verdict, n) ->
              iline
                ~labels:[ ("shop", shop); ("verdict", verdict) ]
                "serve_shop_verdicts_total" n)
            [ ("admitted", admitted); ("rejected", rejected); ("undecided", undecided) ])
        svc.Batcher.verdicts
  in
  let lines = live @ Obs.exposition_lines () in
  "metrics " ^ String.concat ";" lines
