(* Differential fuzzing front end.

   e2e-fuzz --class eedf --trials 2000 --seed 1 -j 4
   e2e-fuzz --class all --trials 200 --corpus test/corpus

   Each trial generates a random instance of the class, runs the paper's
   algorithm against its exhaustive oracle and the independent checker,
   and shrinks any disagreement to a minimal reproducer.  Output is
   byte-identical for every -j/--jobs value; the exit status is nonzero
   when any disagreement survives. *)

open Cmdliner
module Fuzz = E2e_fuzz.Fuzz
module Gen = E2e_fuzz.Gen
module Serve_fuzz = E2e_fuzz.Serve_fuzz
module Pool = E2e_exec.Pool
module Obs = E2e_obs.Obs
module Json = E2e_obs.Json

(* Model classes check one solver against its oracle on one instance;
   the serve class checks the whole admission service (batching + cache)
   against its sequential reference on one request log. *)
type cls = Model of Gen.model_class | Serve

let all_classes = List.map (fun c -> Model c) Gen.all @ [ Serve ]

let classes_arg =
  let classes_conv =
    Arg.enum
      (("all", all_classes) :: ("serve", [ Serve ])
      :: List.map (fun c -> (Gen.name c, [ Model c ])) Gen.all)
  in
  let doc =
    "Model class to fuzz: $(b,eedf) (identical-length flow shops), $(b,r) (single-loop \
     recurrence shops), $(b,a) (homogeneous sets), $(b,h) (arbitrary sets), $(b,eedf-fast) \
     (single-machine engine vs the retained scan-based reference, large instances), \
     $(b,serve) (admission-service request logs, batched-and-cached vs sequential \
     reference), or $(b,all)."
  in
  Arg.(value & opt classes_conv all_classes & info [ "class" ] ~docv:"CLASS" ~doc)

let trials_arg =
  let doc = "Random instances per model class." in
  Arg.(value & opt int 2000 & info [ "trials" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Campaign seed; trial $(i,t) of a class draws from the stream (seed, class, t)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains the trials fan out over.  Defaults to $(b,E2E_JOBS) (capped at the \
     runtime's recommended domain count) or 1.  Results are byte-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let corpus_arg =
  let doc =
    "Write every shrunk reproducer into $(docv) (created if missing) in the task-set text \
     format, named $(i,class-digest.txt); the test suite replays this directory."
  in
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)

let max_shrink_arg =
  let doc = "Cap on accepted shrink steps per finding." in
  Arg.(value & opt int 10_000 & info [ "max-shrink" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Write one JSON object to $(docv) with every telemetry counter, gauge and histogram of \
     the campaign (trials, agreements, skips, disagreements, shrink steps, solver \
     internals)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let run classes trials seed jobs corpus max_shrink metrics =
  let jobs = Pool.resolve_jobs jobs in
  if metrics <> None then begin
    Obs.set_stats true;
    Obs.reset_metrics ()
  end;
  let model_classes = List.filter_map (function Model c -> Some c | Serve -> None) classes in
  let reports = Fuzz.run ~jobs ~max_shrink ~seed ~trials model_classes in
  List.iter (fun r -> Format.printf "%a@." Fuzz.pp_report r) reports;
  let serve_report =
    if List.mem Serve classes then begin
      let r = Serve_fuzz.run ~jobs ~max_shrink ~seed ~trials () in
      Format.printf "%a@." Serve_fuzz.pp_report r;
      Some r
    end
    else None
  in
  (match corpus with
  | None -> ()
  | Some dir ->
      List.iter
        (fun (r : Fuzz.report) ->
          List.iter
            (fun (f : Fuzz.finding) ->
              let provenance =
                Printf.sprintf "seed=%d trial=%d shrink_steps=%d" seed f.Fuzz.trial
                  f.Fuzz.shrink_steps
              in
              let path = Fuzz.write_corpus ~dir ~cls:r.Fuzz.cls ~provenance f.Fuzz.shrunk in
              Format.printf "wrote %s@." path)
            r.Fuzz.findings)
        reports);
  (match metrics with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Obs.metrics_json ()));
          output_char oc '\n');
      Obs.set_stats false);
  let bugs =
    Fuzz.total_findings reports
    + match serve_report with
      | None -> 0
      | Some r -> List.length r.Serve_fuzz.findings
  in
  Format.printf "total: %d class(es), %d trials each, %d disagreement(s)@."
    (List.length classes) trials bugs;
  if bugs > 0 then exit 1

let () =
  let doc = "Differential fuzzing of the schedulers against their exhaustive oracles" in
  let info = Cmd.info "e2e-fuzz" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ classes_arg $ trials_arg $ seed_arg $ jobs_arg $ corpus_arg $ max_shrink_arg
      $ metrics_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
