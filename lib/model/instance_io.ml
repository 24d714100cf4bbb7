module Rat = E2e_rat.Rat

let strip_comment line =
  match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

let words line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse text =
  let lines = String.split_on_char '\n' text in
  let visit = ref None in
  let tasks = ref [] in
  let error = ref None in
  let fail lineno msg = if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno msg) in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      match words (strip_comment line) with
      | [] -> ()
      | "visit" :: rest -> (
          if !visit <> None then fail lineno "duplicate visit directive"
          else
            match List.map int_of_string_opt rest with
            | ints when List.for_all Option.is_some ints && ints <> [] -> (
                let seq = Array.of_list (List.map Option.get ints) in
                match Visit.of_one_based seq with
                | v -> visit := Some v
                | exception Invalid_argument m -> fail lineno m)
            | _ -> fail lineno "visit expects 1-based processor numbers")
      | "task" :: rest -> (
          match rest with
          | release :: deadline :: taus when taus <> [] -> (
              try
                let release = Rat.of_decimal_string release in
                let deadline = Rat.of_decimal_string deadline in
                let proc_times = Array.of_list (List.map Rat.of_decimal_string taus) in
                tasks := (lineno, release, deadline, proc_times) :: !tasks
              with Invalid_argument m -> fail lineno m)
          | _ -> fail lineno "task expects: release deadline tau_1 ... tau_k")
      | word :: _ -> fail lineno (Printf.sprintf "unknown directive %S" word))
    lines;
  match !error with
  | Some e -> Error e
  | None -> (
      let tasks = List.rev !tasks in
      match tasks with
      | [] -> Error "no task lines"
      | (_, _, _, taus0) :: _ -> (
          let k = Array.length taus0 in
          let visit =
            match !visit with Some v -> v | None -> Visit.traditional k
          in
          if Visit.length visit <> k then
            Error
              (Printf.sprintf "visit length %d does not match %d processing times"
                 (Visit.length visit) k)
          else
            let bad =
              List.find_opt (fun (_, _, _, taus) -> Array.length taus <> k) tasks
            in
            match bad with
            | Some (lineno, _, _, _) -> Error (Printf.sprintf "line %d: wrong subtask count" lineno)
            | None -> (
                try
                  let arr =
                    Array.of_list
                      (List.mapi
                         (fun id (_, release, deadline, proc_times) ->
                           Task.make ~id ~release ~deadline ~proc_times)
                         tasks)
                  in
                  Ok (Recurrence_shop.make ~visit arr)
                with Invalid_argument m -> Error m)))

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error m -> Error m

let add_task_line buf (task : Task.t) =
  Buffer.add_string buf "task ";
  Rat.add_to_buffer buf task.release;
  Buffer.add_char buf ' ';
  Rat.add_to_buffer buf task.deadline;
  Array.iter
    (fun tau ->
      Buffer.add_char buf ' ';
      Rat.add_to_buffer buf tau)
    task.proc_times;
  Buffer.add_char buf '\n'

let task_line task =
  let buf = Buffer.create 48 in
  add_task_line buf task;
  Buffer.contents buf

let to_string (shop : Recurrence_shop.t) =
  let buf = Buffer.create 256 in
  if not (Visit.is_traditional shop.visit) then begin
    Buffer.add_string buf "visit";
    Array.iter
      (fun p ->
        Buffer.add_char buf ' ';
        Rat.add_int_to_buffer buf (p + 1))
      shop.visit.Visit.sequence;
    Buffer.add_char buf '\n'
  end;
  Array.iter (add_task_line buf) shop.tasks;
  Buffer.contents buf
