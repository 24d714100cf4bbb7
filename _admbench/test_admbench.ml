(* Tests of the benchmark's OCaml pieces: the failure taxonomy, the
   seeded request streams, the shard router and the reply-log check.  Run with
   OCAMLPATH=$PWD/_build/install/default/lib dune test --root _admbench *)

open Admlib
module Protocol = E2e_serve.Protocol

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL %s\n%!" name
  end

let classify () =
  List.iter
    (fun (line, want) -> expect ("classify " ^ line) (Client.classify line = want))
    [
      ("overloaded", Some Client.Overloaded);
      ("error shard-unavailable", Some Client.Unavailable);
      ("error internal", Some Client.Internal);
      ("error shop=c0-s1 internal", Some Client.Internal);
      (* Request errors are correct answers, not failures. *)
      ("error shop=c0-s1 unknown shop", None);
      ("error add payload must contain only task directives", None);
      ("admitted shop=c0-s1 tasks=3 algo=algo_h makespan=9 schedule=task", None);
      ("rejected shop=c0-s1 tasks=4 certificate=none", None);
      ("undecided shop=c0-s1 tasks=4 reason=heuristic-failed", None);
      ("info shop=c0-s1 unknown", None);
      ("dropped shop=c0-s1 existed=true", None);
    ];
  expect "decision" (Client.is_decision "undecided shop=a tasks=1 reason=x");
  expect "not decision" (not (Client.is_decision "info shop=a tasks=1"))

let lines kind ~seed c n =
  let g = (Workload.generators kind ~seed).(c) in
  List.map Protocol.render_request g.Workload.seed_reqs
  @ List.init n (fun _ -> Protocol.render_request (g.Workload.next ()))

let shop_of line = fst (Protocol.cut_word (snd (Protocol.cut_word line)))

let streams () =
  List.iter
    (fun (name, kind) ->
      expect (name ^ " same seed, same stream") (lines kind ~seed:7 0 300 = lines kind ~seed:7 0 300);
      expect (name ^ " seed changes stream") (lines kind ~seed:7 0 300 <> lines kind ~seed:8 0 300);
      let a = List.map shop_of (lines kind ~seed:7 0 300)
      and b = List.map shop_of (lines kind ~seed:7 1 300) in
      expect (name ^ " disjoint namespaces") (not (List.exists (fun s -> List.mem s b) a));
      expect (name ^ " lines parse back")
        (List.for_all
           (fun l -> match Protocol.parse_request l with Ok (Protocol.Request _) -> true | _ -> false)
           (lines kind ~seed:7 0 100)))
    Workload.names

let router () =
  let shards = [ ("127.0.0.1", 7001); ("127.0.0.1", 7002) ] in
  let route = Client.router shards and reg = E2e_cluster.Registry.create shards in
  let shops = List.init 192 (Printf.sprintf "c0-s%d") in
  expect "router follows the registry"
    (List.for_all
       (fun shop ->
         match E2e_cluster.Registry.home reg shop with
         | Some e -> e.E2e_cluster.Registry.port = snd (List.nth shards (route shop))
         | None -> false)
       shops);
  expect "router uses both shards"
    (List.exists (fun s -> route s = 0) shops && List.exists (fun s -> route s = 1) shops)

(* Reference reply digests of the first [n] requests of connection [c],
   the requests at positions [skip] failed (left out of the replay). *)
let reference kind ~seed c n ~skip =
  let g = (Workload.generators kind ~seed).(c) in
  let reqs = g.Workload.seed_reqs @ List.init (n - List.length g.Workload.seed_reqs) (fun _ -> g.Workload.next ()) in
  let cache = E2e_serve.Cache.create ~capacity:4096 in
  let _, out =
    List.fold_left
      (fun (st, (p, acc)) r ->
        if List.mem p skip then (st, (p + 1, None :: acc))
        else
          let st, reply = E2e_serve.Admission.apply ~cache st r in
          let line = Protocol.render_reply (E2e_serve.Batcher.Reply reply) in
          (st, (p + 1, Some (Digest.string line) :: acc)))
      (E2e_serve.Admission.empty, (0, []))
      reqs
  in
  Array.of_list (List.rev (snd out))

let write_log per_conn =
  let path = Filename.temp_file "admbench" ".replies" in
  Out_channel.with_open_text path (fun oc ->
      Array.iteri
        (fun c ds ->
          Array.iter
            (fun d -> Printf.fprintf oc "%d %s\n" c (match d with Some d -> Digest.to_hex d | None -> "-"))
            ds)
        per_conn);
  path

let reply_check () =
  let kind = Workload.Resubmit and seed = 7 in
  let n = Workload.resubmit_shops + 20 in
  let full = Array.init Workload.connections (fun c -> reference kind ~seed c n ~skip:[]) in
  let short = Array.map (fun ds -> Array.sub ds 0 (n - 7)) full in
  let wrong = Array.map Array.copy full in
  wrong.(1).(n - 3) <- Some (Digest.string "admitted shop=elsewhere");
  (* A failed drop: the reference leaves it out, so the resubmit after it
     answers differently than in [full]. *)
  let p = Workload.resubmit_shops + 4 in
  let failed = Array.copy full in
  failed.(0) <- reference kind ~seed 0 n ~skip:[ p ];
  let logs = List.map write_log [ full; short; wrong; failed ] in
  let res = Client.check_logs kind ~seed (List.map Client.read_log logs) in
  List.iter Sys.remove logs;
  match res with
  | [ (c_full, m_full, _); (c_short, m_short, _); (_, m_wrong, first); (c_failed, m_failed, _) ] ->
      expect "check: every reply of a log is checked" (c_full = 2 * n);
      expect "check: a shorter log checks its prefix" (c_short = 2 * (n - 7));
      expect "check: correct logs pass" (m_full = 0 && m_short = 0);
      expect "check: a wrong reply is caught once" (m_wrong = 1 && first <> None);
      expect "check: failed requests are left out of the replay" (m_failed = 0 && c_failed = (2 * n) - 1);
      expect "check: the failed request changes later replies" (failed.(0) <> full.(0))
  | _ -> expect "check: one result per log" false

let () =
  classify ();
  streams ();
  router ();
  reply_check ();
  if !failures > 0 then exit 1;
  print_endline "admbench tests: ok"
