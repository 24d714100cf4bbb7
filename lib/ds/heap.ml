type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let clear t =
  t.data <- [||];
  t.size <- 0

(* Doubling appends the array to itself rather than [Array.make]-ing
   past 256 slots around the pushed element: when that element is a
   young block, [caml_make_vect] forces a minor collection (stopping
   every domain) to promote it first. *)
let grow t x =
  if t.size = Array.length t.data then
    t.data <- (if t.size = 0 then Array.make 8 x else Array.append t.data t.data)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && t.cmp t.data.(left) t.data.(!smallest) < 0 then smallest := left;
  if right < t.size && t.cmp t.data.(right) t.data.(!smallest) < 0 then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let of_list ~cmp l =
  let t = create ~cmp in
  List.iter (push t) l;
  t

let drain t =
  let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let copy t = { cmp = t.cmp; data = Array.copy t.data; size = t.size }
