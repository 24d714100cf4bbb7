module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Visit = E2e_model.Visit
module Grid = E2e_model.Grid
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

(* {1 The payload scanner}

   The payload of submit/add is the Instance_io text format with ';'
   standing for newline, so multi-directive instances fit one framed
   line.  One scanner walks it by index: segments end at ';' (or a
   newline), '#' comments to the segment's end, words end at any other
   whitespace, and each literal's digits go straight into ints with
   their bounds checked as they arrive.  Nothing is copied, split or
   listed on the way; [Instance_io.parse] stays the file reader and the
   reference the tests hold the scanner to, message for message on
   malformed input. *)

let max_digits = 18
let max_den = 1_000_000_000
let max_magnitude = 1_000_000_000_000

(* 10^k for the at most 9 places of a decimal. *)
let pow10 = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000; max_den |]

(* A refused payload, carrying its reply message. *)
exception Refused of string

let is_digit c = c >= '0' && c <= '9'
let is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false
let ends_word c = is_blank c || c = ';' || c = '\n' || c = '#'

(* The scanner's state.  The hot path allocates nothing but the values
   it returns: the current word and a literal's digits live here, not in
   tuples or closures.  Every index it reads is below [stop], which is
   at most the line's length, so the loops read unchecked. *)
type scan = {
  line : string;
  stop : int;  (* the payload ends here *)
  mutable pos : int;
  mutable seg : int;  (* 1-based segment number, for messages *)
  mutable word : int;  (* start of the word [take_word] found; it ends at [pos] *)
  mutable num : int;  (* a literal's digits so far *)
  mutable sig_digits : int;  (* how many of them are significant *)
}

let char_at sc i = String.unsafe_get sc.line i
let ends_at sc i = i >= sc.stop || ends_word (char_at sc i)
let refuse sc m = raise (Refused (Printf.sprintf "line %d: %s" sc.seg m))

let skip_blanks sc =
  while sc.pos < sc.stop && is_blank (char_at sc sc.pos) do
    sc.pos <- sc.pos + 1
  done

(* Past the end of the current segment's text: its comment included,
   its separator not. *)
let skip_segment sc =
  while sc.pos < sc.stop && char_at sc sc.pos <> ';' && char_at sc sc.pos <> '\n' do
    sc.pos <- sc.pos + 1
  done

(* Whether a word of the segment starts at [sc.pos] (after blanks);
   [false] at the segment's end or its comment. *)
let at_word sc =
  skip_blanks sc;
  not (ends_at sc sc.pos)

(* The word at [sc.pos], from [sc.word] to the new [sc.pos]. *)
let take_word sc =
  sc.word <- sc.pos;
  while not (ends_at sc sc.pos) do
    sc.pos <- sc.pos + 1
  done

let next_word sc =
  at_word sc
  && begin
       take_word sc;
       true
     end

let word_is sc w =
  let n = String.length w in
  sc.pos - sc.word = n
  &&
  let i = ref 0 in
  while !i < n && char_at sc (sc.word + !i) = w.[!i] do
    incr i
  done;
  !i = n

let word sc = String.sub sc.line sc.word (sc.pos - sc.word)

(* The literal that starts at [a] is malformed: its whole word, in
   [Rat.of_decimal_string]'s message, which the file reader gives. *)
let malformed sc a =
  sc.pos <- a;
  take_word sc;
  refuse sc (Printf.sprintf "Rat.of_decimal_string: %S" (word sc))

type bound = Digits | Denominator | Magnitude

(* The literal from [a] to [b] is past a bound. *)
let past sc a b bound =
  sc.word <- a;
  sc.pos <- b;
  refuse sc
    (Printf.sprintf "literal %S out of range: %s" (word sc)
       (match bound with
       | Digits -> "more than 18 digits"
       | Denominator -> "denominator past 10^9"
       | Magnitude -> "magnitude 10^12 or more"))

(* Digits from [i] on into [sc.num], while at most [max_digits] of them
   are significant (so [sc.num < 10^18]: no int wraps); the index of the
   first non-digit. *)
let digits sc i =
  let i = ref i and num = ref sc.num and sig_digits = ref sc.sig_digits in
  while !i < sc.stop && is_digit (char_at sc !i) do
    let d = Char.code (char_at sc !i) - 48 in
    if !sig_digits > 0 || d > 0 then incr sig_digits;
    if !sig_digits <= max_digits then num := (!num * 10) + d;
    incr i
  done;
  sc.num <- !num;
  sc.sig_digits <- !sig_digits;
  !i

(* The literal at [sc.pos] — [[+-]digits], [[+-]digits.digits],
   [[-].digits] or [[+-]digits/digits] — as an exact rational, read in
   one pass that leaves [sc.pos] past it.  It is judged once its form is
   known: malformed text first, then its bounds. *)
let literal sc =
  let a = sc.pos in
  let sign = char_at sc a in
  let neg = sign = '-' in
  let i0 = if neg || sign = '+' then a + 1 else a in
  sc.num <- 0;
  sc.sig_digits <- 0;
  let i = digits sc i0 in
  let int_len = i - i0 and int_digits = sc.sig_digits in
  if ends_at sc i then begin
    if int_len = 0 then malformed sc a;
    if int_digits > 12 then past sc a i Magnitude;
    sc.pos <- i;
    Rat.of_int (if neg then -sc.num else sc.num)
  end
  else
    match char_at sc i with
    | '.' ->
        let j = digits sc (i + 1) in
        let places = j - i - 1 in
        if places = 0 || (not (ends_at sc j)) || (int_len = 0 && sign = '+') then malformed sc a;
        if int_digits > 12 then past sc a j Magnitude;
        if places > 9 then past sc a j Denominator;
        if sc.sig_digits > max_digits then past sc a j Digits;
        sc.pos <- j;
        Rat.make (if neg then -sc.num else sc.num) pow10.(places)
    | '/' when int_len > 0 ->
        let j = ref (i + 1) and den = ref 0 in
        while !j < sc.stop && is_digit (char_at sc !j) do
          if !den <= max_den then den := (!den * 10) + Char.code (char_at sc !j) - 48;
          incr j
        done;
        let j = !j and den = !den in
        if j = i + 1 || (not (ends_at sc j)) || den = 0 then malformed sc a;
        if den > max_den then past sc a j Denominator;
        if int_digits > max_digits then past sc a j Digits;
        if sc.num >= max_magnitude && sc.num / den >= max_magnitude then past sc a j Magnitude;
        sc.pos <- j;
        Rat.make (if neg then -sc.num else sc.num) den
    | _ -> malformed sc a

(* The current word as a visit's 1-based processor number: decimal
   digits, optionally signed, at most [max_digits] of them. *)
let processor sc =
  let s = sc.line and b = sc.pos in
  let neg = s.[sc.word] = '-' in
  let i0 = if neg || s.[sc.word] = '+' then sc.word + 1 else sc.word in
  let i = ref i0 and v = ref 0 in
  while !i < b && !i - i0 < max_digits && is_digit s.[!i] do
    v := (!v * 10) + Char.code s.[!i] - 48;
    incr i
  done;
  if !i = b && b > i0 then Some (if neg then - !v else !v) else None

(* What one pass over a payload collects: the tasks' times in reverse
   order, the visit, the first task's stage count, the first task line
   of another count, and a scratch row for a task's processing times. *)
type collected = {
  mutable tasks : (Rat.t * Rat.t * Rat.t array) list;
  mutable n : int;
  mutable visit : Visit.t option;
  mutable k : int;
  mutable odd : int;  (* segment of the first task of another count, or 0 *)
  mutable row : Rat.t array;
}

let expects sc = refuse sc "task expects: release deadline tau_1 ... tau_k"

(* A task line after its directive.  Fewer than three words is that
   error whatever the words are, as in the file reader. *)
let task_line sc c =
  let first = sc.pos in
  let count = ref 0 and release = ref Rat.zero and deadline = ref Rat.zero in
  (try
     while at_word sc do
       let v = literal sc in
       (match !count with
       | 0 -> release := v
       | 1 -> deadline := v
       | k ->
           if k - 2 = Array.length c.row then begin
             let grown = Array.make (2 * (k - 2)) Rat.zero in
             Array.blit c.row 0 grown 0 (k - 2);
             c.row <- grown
           end;
           c.row.(k - 2) <- v);
       incr count
     done
   with Refused _ as e ->
     sc.pos <- first;
     let words = ref 0 in
     while next_word sc do
       incr words
     done;
     if !words < 3 then expects sc else raise e);
  if !count < 3 then expects sc;
  let k = !count - 2 in
  if c.n = 0 then c.k <- k else if k <> c.k && c.odd = 0 then c.odd <- sc.seg;
  c.tasks <- (!release, !deadline, Array.sub c.row 0 k) :: c.tasks;
  c.n <- c.n + 1

let visit_line sc c =
  if c.visit <> None then refuse sc "duplicate visit directive";
  let ps = ref [] in
  while next_word sc do
    match processor sc with
    | Some p -> ps := p :: !ps
    | None -> refuse sc "visit expects 1-based processor numbers"
  done;
  if !ps = [] then refuse sc "visit expects 1-based processor numbers";
  match Visit.of_one_based (Array.of_list (List.rev !ps)) with
  | v -> c.visit <- Some v
  | exception Invalid_argument m -> refuse sc m

let add_only = "add payload must contain only task directives"

(* After an add payload's first error, only a non-task directive in a
   later segment can still change the reply: the whitelist is checked
   over the whole payload first, as it always was. *)
let rec rest_all_tasks sc =
  skip_segment sc;
  sc.pos >= sc.stop
  || begin
       sc.pos <- sc.pos + 1;
       sc.seg <- sc.seg + 1;
       ((not (next_word sc)) || word_is sc "task") && rest_all_tasks sc
     end

let collect ~add sc =
  let c = { tasks = []; n = 0; visit = None; k = 0; odd = 0; row = Array.make 8 Rat.zero } in
  let rec segments () =
    if next_word sc then
      if word_is sc "task" then task_line sc c
      else if add then raise (Refused add_only)
      else if word_is sc "visit" then visit_line sc c
      else refuse sc (Printf.sprintf "unknown directive %S" (word sc));
    skip_segment sc;
    if sc.pos < sc.stop then begin
      sc.pos <- sc.pos + 1;
      sc.seg <- sc.seg + 1;
      segments ()
    end
  in
  match segments () with
  | () -> c
  | exception (Refused _ as e) ->
      if add && not (rest_all_tasks sc) then raise (Refused add_only);
      raise e

(* The checks the file reader makes once every line is read, in its
   order; then the candidate's fit, before any time is compared. *)
let checked c =
  if c.n = 0 then raise (Refused "no task lines");
  let visit = match c.visit with None -> Visit.traditional c.k | Some v -> v in
  if Visit.length visit <> c.k then
    raise
      (Refused
         (Printf.sprintf "visit length %d does not match %d processing times" (Visit.length visit)
            c.k));
  if c.odd > 0 then raise (Refused (Printf.sprintf "line %d: wrong subtask count" c.odd));
  let tasks = List.rev c.tasks in
  (match Grid.fit ~stages:c.k (fun f -> List.iter (fun (r, d, taus) -> f r d taus) tasks) with
  | Ok () -> ()
  | Error misfit -> raise (Refused (Admission.out_of_range misfit)));
  (visit, tasks)

let task id (release, deadline, proc_times) = Task.make ~id ~release ~deadline ~proc_times

(* Seeds the task array: a young seed past 256 elements would make
   [Array.make] force a minor collection, stopping every domain. *)
let dummy_task = { Task.id = -1; release = Rat.zero; deadline = Rat.zero; proc_times = [||] }

let scan_instance sc =
  let visit, tasks = checked (collect ~add:false sc) in
  match
    let arr = Array.make (List.length tasks) dummy_task in
    List.iteri (fun i t -> arr.(i) <- task i t) tasks;
    Recurrence_shop.make ~visit arr
  with
  | shop -> shop
  | exception Invalid_argument m -> raise (Refused m)

(* An [add] payload extends a committed shop, so directives that
   (re)define shop structure — [visit], or anything else Instance_io
   might grow — must be refused, not forwarded: a whitelist, not a
   blacklist.  Its tasks pass the same checks as a submit's. *)
let scan_tasks sc =
  let _, tasks = checked (collect ~add:true sc) in
  match List.iteri (fun i t -> ignore (task i t)) tasks with
  | () -> tasks
  | exception Invalid_argument m -> raise (Refused m)

(* Index helpers over [line.[i .. stop)] for the request's leading
   words: the next non-space, the end of the word there, and the end of
   the line once trailing space is dropped. *)
let rec skip_space line i stop = if i < stop && is_space line.[i] then skip_space line (i + 1) stop else i
let rec word_end line i stop = if i < stop && not (is_space line.[i]) then word_end line (i + 1) stop else i
let rec trim_end line a j = if j > a && is_space line.[j - 1] then trim_end line a (j - 1) else j

(* A submit or add line from [a], just past its keyword: the shop is
   the next word, and the payload runs from the word after it to the
   last non-space. *)
let parse_payload line a ~add =
  let stop = trim_end line a (String.length line) in
  let s0 = skip_space line a stop in
  let s1 = word_end line s0 stop in
  let shop = String.sub line s0 (s1 - s0) in
  if not (valid_shop shop) then
    Error (if add then "add expects: add <shop> <tasks>" else "submit expects: submit <shop> <instance>")
  else
    let sc = { line; stop; pos = skip_space line s1 stop; seg = 1; word = 0; num = 0; sig_digits = 0 } in
    match
      if add then Admission.Add { shop; tasks = scan_tasks sc }
      else Admission.Submit { shop; instance = scan_instance sc }
    with
    | req -> Ok (Request req)
    | exception Refused m -> Error m

let parse_request line =
  let n = String.length line in
  let a = skip_space line 0 n in
  if a = n || line.[a] = '#' then Ok Blank
  else
    let b = word_end line a n in
    let is w = b - a = String.length w && String.sub line a (b - a) = w in
    if is "submit" then parse_payload line b ~add:false
    else if is "add" then parse_payload line b ~add:true
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

let render_schedule buf schedule =
  let b, n = Schedule.write_csv (Bytes.create 256) 0 ~sep:';' schedule in
  Buffer.add_subbytes buf b 0 n

(* An admitted reply is written into scratch bytes that its domain
   keeps between replies, then copied out once at its exact length: no
   per-reply buffer is sized, grown or thrown away, and the schedule's
   digits go straight into the bytes.  A render takes the scratch out of
   its domain's slot (the take is no allocation and no call, so no other
   systhread of the domain runs in between) and puts it back after; a
   render that finds the slot empty meanwhile uses fresh bytes.  Scratch
   grown past [scratch_keep] is not kept. *)
let scratch = Domain.DLS.new_key (fun () -> ref None)
let scratch_keep = 1 lsl 20
let schedule_field = " schedule="

let render_reply ?(schedules = true) outcome =
  let head = Format.asprintf "%a" Batcher.pp_outcome outcome in
  match outcome with
  | Batcher.Reply
      (Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ })
    when schedules ->
      let slot = Domain.DLS.get scratch in
      let b =
        match !slot with
        | Some b ->
            slot := None;
            b
        | None -> Bytes.create 4096
      in
      let h = String.length head and f = String.length schedule_field in
      let b = if h + f <= Bytes.length b then b else Bytes.create (2 * (h + f)) in
      Bytes.blit_string head 0 b 0 h;
      Bytes.blit_string schedule_field 0 b h f;
      let b, n = Schedule.write_csv b (h + f) ~sep:';' schedule in
      let line = Bytes.sub_string b 0 n in
      if Bytes.length b <= scratch_keep then slot := Some b;
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
