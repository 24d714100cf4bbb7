module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Protocol = E2e_serve.Protocol
module Server = E2e_serve.Server
module Stripes = E2e_serve.Stripes
module Wire = E2e_serve.Wire
module Grid = E2e_model.Grid
module Visit = E2e_model.Visit

type finding = {
  trial : int;
  index : int;
  request : string;
  batched : string;
  reference : string;
  log : string list;
  shrink_steps : int;
}

type report = { seed : int; trials : int; agreed : int; findings : finding list }

let code = 4

(* ------------------------------------------------------------------ *)
(* Request-log generation: a pure function of the stream.             *)

let gen_instance g =
  let n = 2 + Prng.int g 3 and m = 2 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

(* One task's window tightened below its total processing time: the
   candidate is provably infeasible (negative slack), exercising the
   [Rejected]-with-certificate path. *)
let tighten (shop : Recurrence_shop.t) =
  let tasks =
    Array.mapi
      (fun i (t : Task.t) ->
        if i = 0 then
          let total = Rat.sum_array t.proc_times in
          Task.make ~id:t.id ~release:t.release
            ~deadline:Rat.(add t.release (div_int total 2))
            ~proc_times:t.proc_times
        else t)
      shop.Recurrence_shop.tasks
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* Same instance, tasks relabelled: must hit the canonical cache. *)
let permute g (shop : Recurrence_shop.t) =
  let order = Prng.permutation g (Recurrence_shop.n_tasks shop) in
  let tasks =
    Array.mapi
      (fun p orig ->
        let t = shop.Recurrence_shop.tasks.(orig) in
        Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
      order
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* A hostile task, one of two kinds.  Magnitudes near 2^62 and large
   pairwise-coprime denominators, so the sums and cross products the
   solvers form overflow 63 bits (through the wire most such literals
   are past the scanner's bounds); or small times on prime denominators
   below 10^9, every literal in range but two primes in one shop put it
   off its time grid.  A draw whose own construction overflows falls
   back to [benign]. *)
let large_primes = [| 1_000_000_007; 998_244_353; 2_147_483_647; 4_294_967_291; 1_000_000_000_039 |]
let grid_primes = [| 998_244_353; 999_999_937; 999_999_929 |]

let hostile_task g ~id ~stages benign =
  let den () = if Prng.int g 3 = 0 then 1 else large_primes.(Prng.int g (Array.length large_primes)) in
  let near_top () = (1 lsl 62) - 1 - Prng.int g (1 lsl 40) in
  let magnitude () =
    match Prng.int g 3 with
    | 0 -> Rat.of_int (near_top ())
    | 1 -> Rat.make (near_top ()) (den ())
    | _ -> Rat.make (1 + Prng.int g (1 lsl 30)) (den ())
  in
  let off_grid () = Rat.make (1 + Prng.int g 1000) grid_primes.(Prng.int g (Array.length grid_primes)) in
  match
    if Prng.int g 2 = 0 then
      Task.make ~id ~release:Rat.zero
        ~deadline:(Rat.of_int (2000 * stages))
        ~proc_times:(Array.init stages (fun _ -> off_grid ()))
    else
      let release = if Prng.int g 2 = 0 then Rat.zero else magnitude () in
      let deadline = magnitude () and proc_times = Array.init stages (fun _ -> magnitude ()) in
      Task.make ~id ~release ~deadline ~proc_times
  with
  | t -> t
  | exception (Rat.Overflow | Invalid_argument _) -> benign

(* Replace a share of an instance's tasks with hostile ones. *)
let harden g (shop : Recurrence_shop.t) =
  let stages = Array.length shop.Recurrence_shop.tasks.(0).Task.proc_times in
  Recurrence_shop.make ~visit:shop.visit
    (Array.map
       (fun (t : Task.t) -> if Prng.int g 5 = 0 then hostile_task g ~id:t.id ~stages t else t)
       shop.tasks)

let gen_log g =
  let requests = 6 + Prng.int g 15 in
  let live = ref [] (* (shop, instance), most recent first *) in
  let fresh = ref 0 in
  let fresh_shop () =
    incr fresh;
    Printf.sprintf "s%d" !fresh
  in
  let pick () =
    match !live with [] -> None | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.35 || !live = [] then begin
        let shop = fresh_shop () in
        let instance = gen_instance g in
        let instance = if Prng.int g 4 = 0 then harden g instance else instance in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.50 then begin
        let _, earlier = Option.get (pick ()) in
        let shop = fresh_shop () and instance = permute g earlier in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.57 then
        (* Infeasible by construction: the rejected path. *)
        Admission.Submit { shop = fresh_shop (); instance = tighten (gen_instance g) }
      else if p < 0.62 then
        (* Duplicate name: the request-error path. *)
        let shop, _ = Option.get (pick ()) in
        Admission.Submit { shop; instance = gen_instance g }
      else if p < 0.80 then begin
        let shop, committed = Option.get (pick ()) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let count = 1 + Prng.int g 2 in
        let tasks =
          List.init count (fun _ ->
              let taus =
                Array.init k (fun _ ->
                    Prng.rat_uniform g ~den:100 (Rat.make 1 2) (Rat.of_int 2))
              in
              let total = Rat.sum_array taus in
              let release = Prng.rat_uniform g ~den:100 Rat.zero (Rat.of_int 4) in
              let window = Rat.mul_int total (2 + Prng.int g 3) in
              let benign = Task.make ~id:0 ~release ~deadline:(Rat.add release window) ~proc_times:taus in
              let t = if Prng.int g 5 = 0 then hostile_task g ~id:0 ~stages:k benign else benign in
              (t.Task.release, t.deadline, t.proc_times))
        in
        Admission.Add { shop; tasks }
      end
      else if p < 0.90 then
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        Admission.Query { shop }
      else begin
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        live := List.filter (fun (s, _) -> s <> shop) !live;
        Admission.Drop { shop }
      end)

(* ------------------------------------------------------------------ *)
(* Differential comparison                                            *)

let outcome_sig o = Format.asprintf "%a" Batcher.pp_outcome o

(* Batched, cached, [jobs] domains. *)
let run_batched ~jobs log =
  let config =
    { Batcher.queue_capacity = max 1 (List.length log); batch = 4;
      budget = Admission.Unbounded; jobs; cache_capacity = 64 }
  in
  Batcher.process_log (Batcher.create ~config ()) log

(* Sequential, cache off, one domain: the reference interpreter. *)
let run_reference log =
  let _, replies =
    List.fold_left
      (fun (state, acc) req ->
        let state, reply = Admission.apply state req in
        (state, reply :: acc))
      (Admission.empty, []) log
  in
  Array.of_list (List.rev_map (fun r -> Batcher.Reply r) replies)

(* First index where the two interpreters' replies differ. *)
let mismatch ~jobs log =
  let batched = run_batched ~jobs log and reference = run_reference log in
  let n = Array.length batched in
  let rec go i =
    if i >= n then None
    else
      let b = outcome_sig batched.(i) and r = outcome_sig reference.(i) in
      if String.equal b r then go (i + 1) else Some (i, b, r)
  in
  go 0

(* Greedy deletion: drop any request whose removal preserves the
   disagreement, to a fixpoint (or the step bound). *)
let shrink ~jobs ~max_shrink log =
  let remove i l = List.filteri (fun j _ -> j <> i) l in
  let steps = ref 0 in
  let rec pass log i =
    if !steps >= max_shrink || i >= List.length log then log
    else
      let candidate = remove i log in
      match mismatch ~jobs candidate with
      | Some _ ->
          incr steps;
          pass candidate i
      | None -> pass log (i + 1)
  in
  let rec fix log =
    let log' = pass log 0 in
    if List.length log' < List.length log && !steps < max_shrink then fix log' else log'
  in
  (fix log, !steps)

(* ------------------------------------------------------------------ *)
(* Through the wire                                                   *)

(* The scanner's bounds, restated on the rendered rational: numerator
   below 10^18, denominator at most 10^9, magnitude below 10^12. *)
let literal_in_range q =
  let n = abs (Rat.num q) and d = Rat.den q in
  d <= 1_000_000_000 && n < 1_000_000_000_000_000_000 && n / d < 1_000_000_000_000

let times_in_range ~stages tasks =
  List.for_all
    (fun (r, d, taus) ->
      literal_in_range r && literal_in_range d && Array.for_all literal_in_range taus)
    tasks
  && Grid.fit ~stages (fun f -> List.iter (fun (r, d, taus) -> f r d taus) tasks) = Ok ()

(* Whether the scanner must accept the request's rendering: every
   literal in range and the times on their grid (a submit's whole
   instance, an add's payload; the add's merged candidate is the
   admission's to judge). *)
let in_range = function
  | Admission.Submit { instance; _ } ->
      times_in_range ~stages:(Visit.length instance.Recurrence_shop.visit)
        (Array.to_list
           (Array.map
              (fun (t : Task.t) -> (t.release, t.deadline, t.proc_times))
              instance.Recurrence_shop.tasks))
  | Admission.Add { tasks; _ } -> (
      match tasks with
      | [] -> true
      | (_, _, taus) :: _ -> times_in_range ~stages:(Array.length taus) tasks)
  | Admission.Query _ | Admission.Drop _ -> true

(* A typed refusal names the bound it passes. *)
let typed m =
  let key = "out of range: " in
  let n = String.length m and k = String.length key in
  let rec at i = i + k <= n && (String.sub m i k = key || at (i + 1)) in
  at 0

let error_reply message =
  Protocol.render_reply ~schedules:false
    (Batcher.Reply (Admission.Request_error { shop = "-"; message }))

(* Lines that are not requests the generator drew: malformed ones, and
   one literal one digit past each of the scanner's bounds (with the
   exact typed reply it must get). *)
let malformed =
  [| "submit"; "submit s!"; "submit w1 task 0"; "submit w1 task 0 1"; "add w1 visit 1 2";
     "frobnicate w1"; "query"; "drop a b"; "submit w1 task 0 x 1"; "submit w1 task 0 1/0 1";
     "submit w1 visit 1 3 ; task 0 9 1 1"; "submit w1 task 5 3 1"; "add w1 task 0 9 1 ; bogus";
     "submit w1 task 0 0x10 1"; "submit w1 visit 1 99999999999 ; task 0 9 1" |]

let past_bound =
  [|
    ("1" ^ String.make 12 '0', "magnitude 10^12 or more");
    ("0." ^ String.make 9 '0' ^ "1", "denominator past 10^9");
    ("1/1" ^ String.make 10 '0', "denominator past 10^9");
    ("1" ^ String.make 18 '0' ^ "/1000000000", "more than 18 digits");
  |]

type line =
  | Drawn of Admission.request
  | Other of string  (** A malformed line. *)
  | Past of string * string  (** A past-bound line and its exact reply. *)
  | Comment of int  (** A comment line of this many bytes: no reply. *)
  | Oversized  (** One byte past {!Wire.max_line}: the session's last line. *)

let text = function
  | Drawn r -> Protocol.render_request r
  | Other l | Past (l, _) -> l
  | Comment n -> "#" ^ String.make (n - 1) 'x'
  | Oversized -> "#" ^ String.make Wire.max_line 'x'

let gen_wire_log g log =
  let extra () =
    match Prng.int g 3 with
    | 0 -> Other malformed.(Prng.int g (Array.length malformed))
    | 1 ->
        let lit, bound = past_bound.(Prng.int g (Array.length past_bound)) in
        Past
          ( Printf.sprintf "submit w2 task 0 %s 1" lit,
            error_reply (Printf.sprintf "line 1: literal %S out of range: %s" lit bound) )
    | _ -> Comment (if Prng.int g 2 = 0 then Wire.max_line else 1 + Prng.int g 64)
  in
  let lines =
    List.concat_map (fun r -> if Prng.int g 3 = 0 then [ extra (); Drawn r ] else [ Drawn r ]) log
  in
  if Prng.int g 4 = 0 then lines @ [ Oversized; Drawn (Admission.Query { shop = "s1" }) ]
  else lines

(* One [Server.session] over the real [Wire] framer: the lines go in
   through a file, the replies after the greeting come back. *)
let wire_session ~jobs lines =
  let req = Filename.temp_file "e2e_serve_fuzz" ".req"
  and rep = Filename.temp_file "e2e_serve_fuzz" ".rep" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req;
      Sys.remove rep)
    (fun () ->
      Out_channel.with_open_bin req (fun oc ->
          List.iter
            (fun l ->
              output_string oc (text l);
              output_char oc '\n')
            lines);
      let config =
        { Batcher.default_config with Batcher.batch = 4; jobs; cache_capacity = 64 }
      in
      let fd = Unix.openfile req [ Unix.O_RDONLY ] 0
      and out = Unix.openfile rep [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fd;
          Unix.close out)
        (fun () -> Server.session ~schedules:false (Stripes.create ~config ()) fd out);
      List.tl (In_channel.with_open_bin rep In_channel.input_lines))

(* What each line must be answered, from [Protocol.parse_request] and
   the sequential reference on the requests it accepts — [None] for a
   line that gets no reply — and the first line the generator's own
   claims fail on: a drawn request in range that does not parse back to
   itself, or one out of range that is not refused with a typed error. *)
let wire_expected lines =
  let state = ref Admission.empty and broken = ref None in
  let claim i l why = if !broken = None then broken := Some (i, text l, why) in
  let rec go i acc = function
    | [] -> List.rev acc
    | Oversized :: _ -> List.rev (Some (error_reply "request line too long") :: acc)
    | l :: rest ->
        let parsed = Protocol.parse_request (text l) in
        (match (l, parsed) with
        | Drawn r, Ok (Protocol.Request r') when in_range r ->
            if r' <> r then claim i l "does not parse back to itself"
        | Drawn r, _ when in_range r -> claim i l "in range but refused"
        | Drawn _, Error m ->
            if not (typed m) then
              claim i l "out of range but not refused with a typed error"
        | Drawn _, Ok _ -> claim i l "out of range but accepted"
        | Past (_, want), Error m -> if error_reply m <> want then claim i l "wrong typed error"
        | Past _, Ok _ -> claim i l "past a bound but accepted"
        | (Other _ | Comment _ | Oversized), _ -> ());
        let reply =
          match parsed with
          | Ok Protocol.Blank -> None
          | Ok (Protocol.Request r) ->
              let st, reply = Admission.apply !state r in
              state := st;
              (match reply with
              | Admission.Request_error { message = "internal"; _ } ->
                  claim i l "in range but answered internal"
              | _ -> ());
              Some (Protocol.render_reply ~schedules:false (Batcher.Reply reply))
          | Ok Protocol.Ping -> Some ("pong " ^ Protocol.version)
          | Ok _ -> Some "<control>"
          | Error m -> Some (error_reply m)
        in
        go (i + 1) (reply :: acc) rest
  in
  let expected = go 0 [] lines in
  (expected, !broken)

let wire_mismatch ~jobs lines =
  let expected, broken = wire_expected lines in
  match broken with
  | Some (i, _, why) -> Some (i, why, "the generator's claim")
  | None ->
      let actual = wire_session ~jobs lines in
      let rec go i exp act =
        match (exp, act) with
        | [], [] -> None
        | None :: exp, act -> go (i + 1) exp act
        | Some e :: exp, a :: act -> if e = a then go (i + 1) exp act else Some (i, a, e)
        | Some e :: _, [] -> Some (i, "<no reply>", e)
        | [], a :: _ -> Some (i, a, "<no reply>")
      in
      go 0 expected actual

(* Long lines are shown by their head. *)
let shown l = if String.length l <= 120 then l else Printf.sprintf "%s... (%d bytes)" (String.sub l 0 120) (String.length l)

let run ?(jobs = 1) ?(max_shrink = 1000) ~seed ~trials () =
  let agreed = ref 0 and findings = ref [] in
  for trial = 0 to trials - 1 do
    let g = Prng.of_path [| seed; code; trial |] in
    let log = gen_log g in
    match mismatch ~jobs log with
    | None -> (
        let lines = gen_wire_log g log in
        match wire_mismatch ~jobs lines with
        | None -> incr agreed
        | Some (i, got, want) ->
            let texts = List.map (fun l -> shown (text l)) lines in
            findings :=
              { trial; index = i; request = (match List.nth_opt texts i with Some t -> t | None -> "-");
                batched = shown got; reference = shown want; log = texts; shrink_steps = 0 }
              :: !findings)
    | Some _ ->
        let log, shrink_steps = shrink ~jobs ~max_shrink log in
        let index, batched, reference =
          match mismatch ~jobs log with
          | Some (i, b, r) -> (i, b, r)
          | None -> assert false (* shrink preserves the disagreement *)
        in
        let rendered = List.map Protocol.render_request log in
        findings :=
          { trial; index; request = List.nth rendered index; batched; reference;
            log = rendered; shrink_steps }
          :: !findings
  done;
  { seed; trials; agreed = !agreed; findings = List.rev !findings }

let pp_finding ppf f =
  Format.fprintf ppf "  trial %d: reply %d disagrees after %d shrink step(s)@." f.trial
    f.index f.shrink_steps;
  Format.fprintf ppf "    request:   %s@." f.request;
  Format.fprintf ppf "    batched:   %s@." f.batched;
  Format.fprintf ppf "    reference: %s@." f.reference;
  Format.fprintf ppf "    log:@.";
  List.iter (fun line -> Format.fprintf ppf "      | %s@." line) f.log

let pp_report ppf r =
  Format.fprintf ppf "serve: %d trials, %d agreed, %d disagreement(s)" r.trials r.agreed
    (List.length r.findings);
  if r.findings <> [] then begin
    Format.pp_print_newline ppf ();
    List.iter (pp_finding ppf) r.findings
  end
