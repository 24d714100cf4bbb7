type t = { sequence : int array; processors : int }

let make sequence =
  let k = Array.length sequence in
  if k = 0 then invalid_arg "Visit.make: empty sequence";
  if Array.exists (fun p -> p < 0) sequence then invalid_arg "Visit.make: negative processor";
  let m = 1 + Array.fold_left max 0 sequence in
  (* Without gaps there are at most [k] processors: refusing a larger
     number first keeps [seen] no longer than the sequence, whatever
     number a request names. *)
  if m > k then invalid_arg "Visit.make: processor numbering has gaps";
  let seen = Array.make m false in
  Array.iter (fun p -> seen.(p) <- true) sequence;
  if not (Array.for_all Fun.id seen) then invalid_arg "Visit.make: processor numbering has gaps";
  { sequence; processors = m }

let of_one_based seq = make (Array.map (fun p -> p - 1) seq)
let length t = Array.length t.sequence
let traditional m = make (Array.init m Fun.id)
let is_traditional t = length t = t.processors && Array.for_all Fun.id (Array.mapi ( = ) t.sequence)

let visit_positions t =
  let positions = Array.make t.processors [] in
  Array.iteri (fun j p -> positions.(p) <- j :: positions.(p)) t.sequence;
  Array.map List.rev positions

let reused_processors t =
  let positions = visit_positions t in
  let reused = ref [] in
  for p = t.processors - 1 downto 0 do
    if List.length positions.(p) > 1 then reused := p :: !reused
  done;
  !reused

type loop = { first_pos : int; span : int; reused : int }

(* A single loop: the reused processors form one contiguous block
   [l .. l+r-1] that is repeated verbatim at [l+q .. l+q+r-1], each
   reused processor appearing exactly twice.  The cycle this closes in
   the visit graph has q nodes (the processors at positions l .. l+q-1). *)
let single_loop t =
  let positions = visit_positions t in
  let reused = reused_processors t in
  match reused with
  | [] -> None
  | _ -> (
      let pairs =
        List.map
          (fun p -> match positions.(p) with [ f; s ] -> Some (f, s) | _ -> None)
          reused
      in
      if List.exists Option.is_none pairs then None
      else
        let pairs = List.map Option.get pairs in
        let spans = List.map (fun (f, s) -> s - f) pairs in
        match spans with
        | [] -> None
        | q :: rest when List.for_all (( = ) q) rest ->
            let firsts = List.sort compare (List.map fst pairs) in
            let r = List.length firsts in
            let l = List.hd firsts in
            let contiguous = List.for_all2 (fun f i -> f = l + i) firsts (List.init r Fun.id) in
            let block_repeats =
              l + q + r <= length t
              && Array.for_all Fun.id
                   (Array.init r (fun i -> t.sequence.(l + i) = t.sequence.(l + q + i)))
            in
            if contiguous && block_repeats && q >= r then Some { first_pos = l; span = q; reused = r }
            else None
        | _ -> None)

type edge = { src : int; dst : int; label : int }

let graph_edges t =
  List.init
    (length t - 1)
    (fun a -> { src = t.sequence.(a); dst = t.sequence.(a + 1); label = a })

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph visit {\n  rankdir=LR;\n";
  for p = 0 to t.processors - 1 do
    Buffer.add_string buf (Printf.sprintf "  P%d [shape=circle];\n" (p + 1))
  done;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  P%d -> P%d [label=\"%d\"];\n" (e.src + 1) (e.dst + 1) (e.label + 1)))
    (graph_edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf p -> Format.pp_print_int ppf (p + 1)))
    t.sequence
