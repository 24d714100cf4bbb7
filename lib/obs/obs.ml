type value = Bool of bool | Int of int | Float of float | Str of string

type field = string * value

type kind = Span_begin | Span_end of float | Instant | Counter of float

type event = {
  ts : float;
  name : string;
  kind : kind;
  depth : int;
  fields : field list;
}

let value_json = function
  | Bool b -> Json.Bool b
  | Int n -> Json.int n
  | Float f -> Json.Num f
  | Str s -> Json.Str s

let field_json fields = Json.Obj (List.map (fun (k, v) -> (k, value_json v)) fields)

(* ------------------------------------------------------------------ *)
(* Clock: any float source, clamped so trace timestamps never go        *)
(* backwards even if the wall clock is stepped underneath us.           *)

module Clock = struct
  let wall = Unix.gettimeofday
  let source = ref wall

  (* The clamp is an atomic max so concurrent domains reading the clock
     cannot move it backwards for each other. *)
  let last = Atomic.make neg_infinity

  let now () =
    let t = !source () in
    let rec clamp () =
      let l = Atomic.get last in
      if t > l then if Atomic.compare_and_set last l t then t else clamp () else l
    in
    clamp ()

  let set_source f =
    source := f;
    Atomic.set last neg_infinity

  let use_wall_clock () = set_source wall
end

(* ------------------------------------------------------------------ *)
(* Sinks.                                                              *)

module Sink = struct
  type t = { emit : event -> unit; close : unit -> unit }

  let null = { emit = ignore; close = ignore }

  let memory () =
    let buffer = ref [] in
    ( { emit = (fun e -> buffer := e :: !buffer); close = ignore },
      fun () -> List.rev !buffer )

  let tee sinks =
    {
      emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
      close = (fun () -> List.iter (fun s -> s.close ()) sinks);
    }

  let src = Logs.Src.create "e2e_sched.obs" ~doc:"e2e_sched telemetry"

  let pp_fields ppf = function
    | [] -> ()
    | fields ->
        List.iter
          (fun (k, v) ->
            Format.fprintf ppf " %s=%s" k
              (match v with
              | Bool b -> string_of_bool b
              | Int n -> string_of_int n
              | Float f -> Printf.sprintf "%g" f
              | Str s -> s))
          fields

  let logs ?(level = Logs.Debug) () =
    {
      emit =
        (fun e ->
          let pad = String.make e.depth ' ' in
          let line =
            match e.kind with
            | Span_begin ->
                Format.asprintf "[%.6f] %s> %s%a" e.ts pad e.name pp_fields e.fields
            | Span_end dur ->
                Format.asprintf "[%.6f] %s< %s (%.6fs)%a" e.ts pad e.name dur pp_fields
                  e.fields
            | Instant ->
                Format.asprintf "[%.6f] %s. %s%a" e.ts pad e.name pp_fields e.fields
            | Counter v ->
                Format.asprintf "[%.6f] %s# %s = %g%a" e.ts pad e.name v pp_fields
                  e.fields
          in
          Logs.msg ~src level (fun m -> m "%s" line));
      close = ignore;
    }

  let jsonl_record e =
    let kind, extra =
      match e.kind with
      | Span_begin -> ("span_begin", [])
      | Span_end dur -> ("span_end", [ ("dur", Json.Num dur) ])
      | Instant -> ("event", [])
      | Counter v -> ("counter", [ ("value", Json.Num v) ])
    in
    Json.Obj
      ([ ("ts", Json.Num e.ts); ("type", Json.Str kind); ("name", Json.Str e.name);
         ("depth", Json.int e.depth) ]
      @ extra
      @ (match e.fields with [] -> [] | fs -> [ ("fields", field_json fs) ]))

  let jsonl oc =
    {
      emit =
        (fun e ->
          output_string oc (Json.to_string (jsonl_record e));
          output_char oc '\n');
      close =
        (fun () ->
          flush oc;
          close_out oc);
    }

  (* Chrome trace_event array format.  Timestamps are microseconds; all
     events live on one pid/tid so nested spans stack in the UI. *)
  let chrome_record e =
    let us = e.ts *. 1e6 in
    let base = [ ("pid", Json.int 1); ("tid", Json.int 1); ("ts", Json.Num us) ] in
    match e.kind with
    | Span_begin ->
        Json.Obj
          (( ("name", Json.Str e.name) :: ("cat", Json.Str "e2e_sched")
           :: ("ph", Json.Str "B") :: base )
          @ [ ("args", field_json e.fields) ])
    | Span_end _ ->
        Json.Obj
          (( ("name", Json.Str e.name) :: ("cat", Json.Str "e2e_sched")
           :: ("ph", Json.Str "E") :: base )
          @ [ ("args", field_json e.fields) ])
    | Instant ->
        Json.Obj
          (( ("name", Json.Str e.name) :: ("cat", Json.Str "e2e_sched")
           :: ("ph", Json.Str "i") :: ("s", Json.Str "t") :: base )
          @ [ ("args", field_json e.fields) ])
    | Counter v ->
        Json.Obj
          (( ("name", Json.Str e.name) :: ("cat", Json.Str "e2e_sched")
           :: ("ph", Json.Str "C") :: base )
          @ [ ("args", Json.Obj [ ("value", Json.Num v) ]) ])

  let chrome oc =
    let first = ref true in
    output_char oc '[';
    {
      emit =
        (fun e ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (Json.to_string (chrome_record e)));
      close =
        (fun () ->
          output_string oc "]\n";
          flush oc;
          close_out oc);
    }
end

(* ------------------------------------------------------------------ *)
(* Global state.  [on] mirrors (sink <> None || stats): the single      *)
(* bool the hot paths read.  Install/uninstall/set_stats are main-      *)
(* domain operations; the instrumentation calls themselves are domain-  *)
(* safe: sinks are fed under a mutex and span depth is domain-local.    *)

let sink : Sink.t option ref = ref None
let stats = ref false
let on = ref false
let t0 = ref 0.0
let sink_mu = Mutex.create ()
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let refresh () = on := !sink <> None || !stats

let enabled () = !on
let stats_enabled () = !stats

let uninstall () =
  Mutex.protect sink_mu (fun () ->
      (match !sink with Some s -> s.Sink.close () | None -> ());
      sink := None);
  Domain.DLS.get depth_key := 0;
  refresh ()

let install s =
  uninstall ();
  Mutex.protect sink_mu (fun () -> sink := Some s);
  t0 := Clock.now ();
  refresh ()

let set_stats b =
  stats := b;
  refresh ()

let emit kind name fields =
  match !sink with
  | None -> ()
  | Some _ ->
      let ts = Clock.now () -. !t0 and depth = !(Domain.DLS.get depth_key) in
      Mutex.protect sink_mu (fun () ->
          match !sink with
          | None -> ()
          | Some s -> s.Sink.emit { ts; name; kind; depth; fields })

let event ?(fields = []) name = if !on then emit Instant name fields

(* Guarded on the sink, not on [on]: spans only ever reach sinks, and a
   stats-only configuration must not read the clock from worker domains
   (under a hand-cranked deterministic clock every read advances shared
   state, so clock reads off the main domain would make traced runs
   depend on domain interleaving). *)
let span ?(fields = []) name f =
  if !sink = None then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let start = Clock.now () in
    emit Span_begin name fields;
    incr depth;
    let finish () =
      decr depth;
      emit (Span_end (Clock.now () -. start)) name fields
    in
    match f () with
    | result ->
        finish ();
        result
    | exception exn ->
        finish ();
        raise exn
  end

(* ------------------------------------------------------------------ *)
(* Metrics.  Each domain accumulates into its own store, created        *)
(* lazily through domain-local storage, so updates from different       *)
(* domains never contend.  Several systhreads of one domain (the TCP    *)
(* listener's reader threads) share its store, so every update takes    *)
(* the store's mutex — uncontended across domains, and only when        *)
(* telemetry is on: the off path stays one bool read.  Readers          *)
(* ([counters], [metrics_json], ...) merge across stores, each under    *)
(* its mutex, so a merge may run while other threads update.            *)

type histogram = { count : int; sum : float; min : float; max : float }

type store = {
  mu : Mutex.t;  (* serialises the threads of the owning domain and readers *)
  counter_tbl : (string, int ref) Hashtbl.t;
  gauge_tbl : (string, (float * int) ref) Hashtbl.t;  (* value, update seq *)
  hist_tbl : (string, Quantile.t) Hashtbl.t;
}

let stores_mu = Mutex.create ()
let stores : store list ref = ref []

(* Orders gauge updates across domains so the merge keeps the latest. *)
let gauge_seq = Atomic.make 0

let new_store () =
  let s =
    {
      mu = Mutex.create ();
      counter_tbl = Hashtbl.create 32;
      gauge_tbl = Hashtbl.create 16;
      hist_tbl = Hashtbl.create 16;
    }
  in
  Mutex.protect stores_mu (fun () -> stores := s :: !stores);
  s

let store_key = Domain.DLS.new_key new_store
let my_store () = Domain.DLS.get store_key
let all_stores () = Mutex.protect stores_mu (fun () -> !stores)

(* Every touch of a store's tables, from its domain's threads or from a
   reader merging across stores, runs under the store's mutex. *)
let locked st f = Mutex.protect st.mu f
let with_my_store f = let st = my_store () in locked st (fun () -> f st)

let incr ?(by = 1) name =
  if !on then begin
    let tally =
      with_my_store (fun st ->
          let cell =
            match Hashtbl.find_opt st.counter_tbl name with
            | Some cell -> cell
            | None ->
                let cell = ref 0 in
                Hashtbl.add st.counter_tbl name cell;
                cell
          in
          cell := !cell + by;
          !cell)
    in
    (* The emitted running value is this domain's own tally. *)
    emit (Counter (float_of_int tally)) name []
  end

let gauge name v =
  if !on then begin
    with_my_store (fun st ->
        let stamped = (v, Atomic.fetch_and_add gauge_seq 1) in
        match Hashtbl.find_opt st.gauge_tbl name with
        | Some cell -> cell := stamped
        | None -> Hashtbl.add st.gauge_tbl name (ref stamped));
    emit (Counter v) name []
  end

let observe name v =
  if !on then
    with_my_store (fun st ->
        let q =
          match Hashtbl.find_opt st.hist_tbl name with
          | Some q -> q
          | None ->
              let q = Quantile.create () in
              Hashtbl.add st.hist_tbl name q;
              q
        in
        Quantile.observe q v)

(* Merge one kind of table across every store into an alist sorted by
   name.  [combine] folds a store's cell into the accumulated value. *)
let merge_tables project combine =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun st ->
      locked st (fun () ->
          Hashtbl.iter
            (fun name cell ->
              let v = !cell in
              match Hashtbl.find_opt acc name with
              | Some prev -> Hashtbl.replace acc name (combine prev v)
              | None -> Hashtbl.replace acc name v)
            (project st)))
    (all_stores ());
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = merge_tables (fun st -> st.counter_tbl) ( + )

let gauges () =
  merge_tables
    (fun st -> st.gauge_tbl)
    (fun (v1, s1) (v2, s2) -> if s2 > s1 then (v2, s2) else (v1, s1))
  |> List.map (fun (name, (v, _)) -> (name, v))

(* Histograms merge whole sketches (not refs), so they bypass
   [merge_tables]: each store's sketch is copied/merged into a fresh
   per-name aggregate, leaving the per-domain recorders untouched. *)
let sketches () =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun st ->
      locked st (fun () ->
          Hashtbl.iter
            (fun name q ->
              match Hashtbl.find_opt acc name with
              | Some prev -> Hashtbl.replace acc name (Quantile.merge prev q)
              | None -> Hashtbl.replace acc name (Quantile.copy q))
            st.hist_tbl))
    (all_stores ());
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms () =
  List.map
    (fun (name, q) ->
      ( name,
        {
          count = Quantile.count q;
          sum = Quantile.sum q;
          min = Quantile.min_value q;
          max = Quantile.max_value q;
        } ))
    (sketches ())

let counter_value name =
  List.fold_left
    (fun acc st ->
      locked st (fun () ->
          match Hashtbl.find_opt st.counter_tbl name with Some c -> acc + !c | None -> acc))
    0 (all_stores ())

let reset_metrics () =
  List.iter
    (fun st ->
      locked st (fun () ->
          Hashtbl.reset st.counter_tbl;
          Hashtbl.reset st.gauge_tbl;
          Hashtbl.reset st.hist_tbl))
    (all_stores ())

let metrics_json () =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) (counters ())));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (gauges ())));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, q) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.int (Quantile.count q));
                     ("sum", Json.Num (Quantile.sum q));
                     ("min", Json.Num (Quantile.min_value q));
                     ("max", Json.Num (Quantile.max_value q));
                     ("p50", Json.Num (Quantile.quantile q 0.5));
                     ("p95", Json.Num (Quantile.quantile q 0.95));
                     ("p99", Json.Num (Quantile.quantile q 0.99));
                   ] ))
             (sketches ())) );
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus-style text exposition.  Registry names may carry inline
   labels — ["serve.verdicts{shop=s1,verdict=admitted}"] — which render
   as quoted label pairs; dots and dashes in the bare name become
   underscores.  Lines are sorted, so the rendering is a deterministic
   function of the registry contents. *)

let mangle_base name = String.map (function '.' | '-' -> '_' | c -> c) name

(* Split "base{k=v,k2=v2}" into the base and its label pairs. *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, [])
  | Some i ->
      let base = String.sub name 0 i in
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      let rest =
        match String.rindex_opt rest '}' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      let labels =
        String.split_on_char ',' rest
        |> List.filter_map (fun kv ->
               if kv = "" then None
               else
                 match String.index_opt kv '=' with
                 | None -> Some (kv, "")
                 | Some e ->
                     Some
                       ( String.sub kv 0 e,
                         String.sub kv (e + 1) (String.length kv - e - 1) ))
      in
      (base, labels)

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let exposition_line ?(labels = []) name v =
  let base, inline = split_labels name in
  let labels = inline @ labels in
  let b = Buffer.create 64 in
  Buffer.add_string b (mangle_base base);
  (match labels with
  | [] -> ()
  | ls ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (mangle_base k);
          Buffer.add_string b "=\"";
          Buffer.add_string b (escape_label_value v);
          Buffer.add_char b '"')
        ls;
      Buffer.add_char b '}');
  Buffer.add_char b ' ';
  Buffer.add_string b (Json.to_string (Json.Num v));
  Buffer.contents b

(* Append a suffix to the base name, before any label block. *)
let with_suffix name suffix =
  match String.index_opt name '{' with
  | None -> name ^ suffix
  | Some i ->
      String.sub name 0 i ^ suffix ^ String.sub name i (String.length name - i)

let exposition_quantiles = [ (0.5, "0.5"); (0.95, "0.95"); (0.99, "0.99") ]

let exposition_lines () =
  let lines = ref [] in
  let push l = lines := l :: !lines in
  List.iter
    (fun (name, v) ->
      push (exposition_line (with_suffix name "_total") (float_of_int v)))
    (counters ());
  List.iter (fun (name, v) -> push (exposition_line name v)) (gauges ());
  List.iter
    (fun (name, q) ->
      List.iter
        (fun (ql, tag) ->
          push (exposition_line ~labels:[ ("quantile", tag) ] name (Quantile.quantile q ql)))
        exposition_quantiles;
      push (exposition_line (with_suffix name "_count") (float_of_int (Quantile.count q)));
      push (exposition_line (with_suffix name "_sum") (Quantile.sum q));
      push (exposition_line (with_suffix name "_min") (Quantile.min_value q));
      push (exposition_line (with_suffix name "_max") (Quantile.max_value q)))
    (sketches ());
  List.sort compare !lines

let exposition () =
  String.concat "" (List.map (fun l -> l ^ "\n") (exposition_lines ()))

let pp_metrics ppf () =
  let cs = counters () and gs = gauges () and hs = histograms () in
  if cs = [] && gs = [] && hs = [] then
    Format.fprintf ppf "no metrics recorded@."
  else begin
    List.iter (fun (k, v) -> Format.fprintf ppf "%-42s %12d@." k v) cs;
    List.iter (fun (k, v) -> Format.fprintf ppf "%-42s %12g@." k v) gs;
    List.iter
      (fun (k, h) ->
        Format.fprintf ppf "%-42s n=%d sum=%g min=%g max=%g@." k h.count h.sum h.min
          h.max)
      hs
  end

let git_commit () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some c when String.trim c <> "" -> String.trim c
      | _ -> "unknown")

let host () =
  Json.Obj
    [
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
    ]
