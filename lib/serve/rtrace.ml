module Obs = E2e_obs.Obs
module Json = E2e_obs.Json

(* Stage order is the pipeline order; every request passes through all
   seven.  Requests that skip a phase (a query never solves) still mark
   the stage, with a ~zero duration, so traces are rectangular and the
   per-stage sums tile the end-to-end latency exactly. *)
let stages = [| "queue"; "canonicalize"; "cache"; "solve"; "verify"; "commit"; "render" |]
let n_stages = Array.length stages

let stage_index name =
  let rec go i = if i >= n_stages then None else if stages.(i) = name then Some i else go (i + 1) in
  go 0

type t = {
  id : int;
  op : string;
  shop : string;
  mutable verdict : string;
  enqueued : float;  (* absolute clock reading at submit *)
  marks : float array;  (* absolute clock reading at the end of each stage *)
}

(* Shared sentinel for the disabled path: [start]/[mark]/[finish] on
   [none] are no-ops and allocate nothing. *)
let none = { id = 0; op = ""; shop = ""; verdict = ""; enqueued = 0.; marks = [||] }

let writer : (string -> unit) option ref = ref None
let base = ref 0.

let set_writer w =
  writer := w;
  if w <> None then base := Obs.Clock.now ()

let active () = !writer <> None || Obs.stats_enabled ()

let start ~id ~op ~shop =
  { id; op; shop; verdict = ""; enqueued = Obs.Clock.now (); marks = Array.make n_stages 0. }

let mark t i = if t != none then t.marks.(i) <- Obs.Clock.now ()
let set_verdict t v = if t != none then t.verdict <- v

let id t = t.id
let op t = t.op
let shop t = t.shop
let verdict t = t.verdict

let stage_duration t i = if i = 0 then t.marks.(0) -. t.enqueued else t.marks.(i) -. t.marks.(i - 1)

let record ~id ~op ~shop ~stage ~seq ~t ~dur extra =
  Json.Obj
    ([
       ("trace", Json.Str "req");
       ("id", Json.int id);
       ("op", Json.Str op);
       ("shop", Json.Str shop);
       ("stage", Json.Str stage);
       ("seq", Json.int seq);
       ("t", Json.Num t);
       ("dur", Json.Num dur);
     ]
    @ extra)

let emit_lines t w =
  for i = 0 to n_stages - 1 do
    w
      (Json.to_string
         (record ~id:t.id ~op:t.op ~shop:t.shop ~stage:stages.(i) ~seq:i
            ~t:(t.marks.(i) -. !base) ~dur:(stage_duration t i) []))
  done;
  let e2e = t.marks.(n_stages - 1) -. t.enqueued in
  w
    (Json.to_string
       (record ~id:t.id ~op:t.op ~shop:t.shop ~stage:"done" ~seq:n_stages
          ~t:(t.marks.(n_stages - 1) -. !base) ~dur:e2e
          [ ("verdict", Json.Str t.verdict) ]))

(* [finish] closes the render stage (the only clock read it performs),
   streams the request's JSONL lines and feeds the per-stage and
   end-to-end registry histograms.  Call it exactly once per traced
   request, after the reply has been rendered.  Servers running in
   several domains of one process (in-process shards) finish traces at
   once, so the writer is serialised per request here: one request's lines never interleave
   with another's (cross-request order across stripes is arbitrary,
   which the per-id schema validation is indifferent to). *)
let wmu = Mutex.create ()

let finish t =
  if t != none then begin
    t.marks.(n_stages - 1) <- Obs.Clock.now ();
    (match !writer with
    | None -> ()
    | Some w ->
        Mutex.lock wmu;
        (match emit_lines t w with
        | () -> Mutex.unlock wmu
        | exception e ->
            Mutex.unlock wmu;
            raise e));
    if Obs.stats_enabled () then begin
      for i = 0 to n_stages - 1 do
        Obs.observe ("serve.stage." ^ stages.(i)) (stage_duration t i)
      done;
      Obs.observe "serve.e2e" (t.marks.(n_stages - 1) -. t.enqueued)
    end
  end

(* ------------------------------------------------------------------ *)
(* Schema: parsing and validation of the JSONL trace, shared by
   [e2e-trace] and [jsonl_check --trace]. *)

module Schema = struct
  type record = {
    id : int;
    op : string;
    shop : string;
    stage : string;
    seq : int;
    t : float;
    dur : float;
    verdict : string option;
  }

  let str = function Some (Json.Str s) -> Some s | _ -> None
  let num = function Some (Json.Num n) -> Some n | _ -> None

  let int_of j =
    match num j with
    | Some f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None

  (* [Ok None] on JSON lines that are not request-trace records (other
     telemetry may share the stream). *)
  let of_json j =
    match Json.member "trace" j with
    | Some (Json.Str "req") -> (
        let field name conv = conv (Json.member name j) in
        match
          ( field "id" int_of,
            field "op" str,
            field "shop" str,
            field "stage" str,
            field "seq" int_of,
            field "t" num,
            field "dur" num )
        with
        | Some id, Some op, Some shop, Some stage, Some seq, Some t, Some dur ->
            Ok (Some { id; op; shop; stage; seq; t; dur; verdict = field "verdict" str })
        | _ -> Error "trace record is missing a required field (id/op/shop/stage/seq/t/dur)")
    | _ -> Ok None

  (* Per-request bookkeeping: next expected stage, last timestamp, and
     the running stage-duration sum checked against the done record. *)
  type progress = { mutable next_seq : int; mutable last_t : float; mutable dur_sum : float }
  type validator = { by_id : (int, progress) Hashtbl.t; mutable completed : int }

  let validator () = { by_id = Hashtbl.create 64; completed = 0 }

  let err fmt = Printf.ksprintf (fun m -> Error m) fmt

  let feed v (r : record) =
    let p =
      match Hashtbl.find_opt v.by_id r.id with
      | Some p -> p
      | None ->
          let p = { next_seq = 0; last_t = neg_infinity; dur_sum = 0. } in
          Hashtbl.add v.by_id r.id p;
          p
    in
    if r.seq <> p.next_seq then
      err "request %d: stage %S out of order (seq %d, expected %d)" r.id r.stage r.seq p.next_seq
    else if r.seq > n_stages then err "request %d: seq %d past the done record" r.id r.seq
    else if r.seq < n_stages && r.stage <> stages.(r.seq) then
      err "request %d: seq %d named %S, expected %S" r.id r.seq r.stage stages.(r.seq)
    else if r.seq = n_stages && r.stage <> "done" then
      err "request %d: seq %d named %S, expected \"done\"" r.id r.seq r.stage
    else if not (r.dur >= 0.) then err "request %d stage %S: negative duration %g" r.id r.stage r.dur
    else if r.t < p.last_t then
      err "request %d stage %S: timestamp %g moves backwards (last %g)" r.id r.stage r.t p.last_t
    else if r.seq = n_stages && r.verdict = None then
      err "request %d: done record has no verdict" r.id
    else begin
      p.last_t <- r.t;
      if r.seq < n_stages then begin
        p.dur_sum <- p.dur_sum +. r.dur;
        p.next_seq <- r.seq + 1;
        Ok ()
      end
      else begin
        let tol = 1e-9 +. (1e-9 *. Float.abs r.dur) in
        if Float.abs (p.dur_sum -. r.dur) > tol then
          err "request %d: stage durations sum to %.12g but end-to-end is %.12g" r.id p.dur_sum
            r.dur
        else begin
          p.next_seq <- n_stages + 1;
          v.completed <- v.completed + 1;
          Ok ()
        end
      end
    end

  let completed v = v.completed

  let check_closed v =
    Hashtbl.fold
      (fun id p acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if p.next_seq = n_stages + 1 then Ok ()
            else err "request %d: trace truncated before its done record" id)
      v.by_id (Ok ())
end
