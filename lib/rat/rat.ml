type t = { num : int; den : int }

exception Division_by_zero
exception Overflow

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Overflow-checked native-int arithmetic.  The fast paths below skip
   the checks when every operand is small enough that no intermediate
   can wrap; the slow paths use these, raising [Overflow] rather than
   ever returning a silently wrapped (hence wrong) rational. *)

(* |v| < 2^30: products of two such fit in 60 bits and sums of two such
   products in 61, comfortably inside OCaml's 63-bit native int. *)
let fits v = v > -0x4000_0000 && v < 0x4000_0000

let checked_add a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow;
  s

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else if a = min_int || b = min_int then raise Overflow
  else begin
    let p = a * b in
    if p / b <> a then raise Overflow;
    p
  end

let make num den =
  if den = 0 then raise Division_by_zero
  else if num = min_int || den = min_int then
    (* Keeping |num| and |den| <= max_int makes negation, absolute value
       and the gcd normalisation total on every constructed value. *)
    raise Overflow
  else
    let sign = if den < 0 then -1 else 1 in
    let num = sign * num and den = sign * den in
    let g = gcd (Stdlib.abs num) den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = if n = min_int then raise Overflow else { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let num t = t.num
let den t = t.den
let neg t = { t with num = -t.num }

(* Reduce cross factors before multiplying to keep intermediates small:
   a/b + c/d with g = gcd b d is (a*(d/g) + c*(b/g)) / (b/g*d). *)
let add a b =
  let g = gcd a.den b.den in
  let bd = b.den / g in
  if fits a.num && fits a.den && fits b.num && fits b.den then
    make ((a.num * bd) + (b.num * (a.den / g))) (a.den * bd)
  else
    make
      (checked_add (checked_mul a.num bd) (checked_mul b.num (a.den / g)))
      (checked_mul a.den bd)

let sub a b = add a (neg b)

let mul a b =
  let g1 = gcd (Stdlib.abs a.num) b.den and g2 = gcd (Stdlib.abs b.num) a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  if fits a.num && fits a.den && fits b.num && fits b.den then
    make (a.num / g1 * (b.num / g2)) (a.den / g2 * (b.den / g1))
  else
    make
      (checked_mul (a.num / g1) (b.num / g2))
      (checked_mul (a.den / g2) (b.den / g1))

let inv t =
  if t.num = 0 then raise Division_by_zero
  else if t.num < 0 then { num = -t.den; den = -t.num }
  else { num = t.den; den = t.num }

let div a b = mul a (inv b)
let abs t = { t with num = Stdlib.abs t.num }
let mul_int t k =
  if fits t.num && fits k then make (t.num * k) t.den else make (checked_mul t.num k) t.den

let div_int t k =
  if k = 0 then raise Division_by_zero
  else if fits t.den && fits k then make t.num (t.den * k)
  else make t.num (checked_mul t.den k)

let compare a b =
  (* Equal denominators — the common case inside solvers, where values
     share a time grid — compare by numerator alone: no multiplication,
     no overflow risk. *)
  if a.den = b.den then Stdlib.compare a.num b.num
  (* Cross-multiplication; denominators are positive. *)
  else if fits a.num && fits a.den && fits b.num && fits b.den then
    Stdlib.compare (a.num * b.den) (b.num * a.den)
  else
    (* Differing signs decide without multiplying; equal signs fall back
       to checked cross-multiplication by the cofactors of the common
       denominator (a/b vs c/d as a*(d/g) vs c*(b/g), g = gcd b d: both
       sides scaled by the positive lcm), which raises [Overflow] only
       when the lcm-scaled numerators do not fit, never comparing
       wrapped products. *)
    let sa = Stdlib.compare a.num 0 and sb = Stdlib.compare b.num 0 in
    if sa <> sb then Stdlib.compare sa sb
    else
      let g = gcd a.den b.den in
      Stdlib.compare (checked_mul a.num (b.den / g)) (checked_mul b.num (a.den / g))

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sign t = Stdlib.compare t.num 0
let is_zero t = t.num = 0

let floor t =
  if t.num >= 0 then t.num / t.den
  else
    let q = t.num / t.den in
    if t.num mod t.den = 0 then q else q - 1

let ceil t = -floor (neg t)
let is_integer t = t.den = 1

let is_multiple_of x q = is_integer (div x q)
let to_float t = float_of_int t.num /. float_of_int t.den

let of_float ?(max_den = 1_000_000) x =
  if not (Float.is_finite x) then invalid_arg "Rat.of_float: non-finite input"
  else if Float.abs x >= 0x1p62 then
    (* int_of_float would wrap on integral magnitudes >= 2^62. *)
    raise Overflow
  else if Float.is_integer x then of_int (int_of_float x)
  else begin
    (* Continued-fraction convergents p/q of |x| until q exceeds max_den. *)
    let negative = x < 0.0 in
    let x = Float.abs x in
    let rec loop frac p0 q0 p1 q1 steps =
      if steps = 0 then (p1, q1)
      else
        let a = int_of_float (Float.floor frac) in
        let p2 = (a * p1) + p0 and q2 = (a * q1) + q0 in
        if q2 > max_den then (p1, q1)
        else
          let rem = frac -. float_of_int a in
          if rem <= 1e-12 then (p2, q2) else loop (1.0 /. rem) p1 q1 p2 q2 (steps - 1)
    in
    (* Convergent recurrence seeds: h_{-2}/k_{-2} = 0/1, h_{-1}/k_{-1} = 1/0. *)
    let p, q = loop x 0 1 1 0 64 in
    let p, q = if q = 0 then (int_of_float x, 1) else (p, q) in
    make (if negative then -p else p) q
  end

let of_decimal_string s =
  let s = String.trim s in
  let fail () = invalid_arg (Printf.sprintf "Rat.of_decimal_string: %S" s) in
  if String.length s = 0 then fail ();
  (* A literal whose value or scale does not fit the 63-bit rationals is
     malformed input, not an arithmetic fault. *)
  try
    match String.index_opt s '/' with
    | Some i ->
        let parse part = match int_of_string_opt part with Some n -> n | None -> fail () in
        let n = parse (String.sub s 0 i)
        and d = parse (String.sub s (i + 1) (String.length s - i - 1)) in
        if d = 0 then fail () else make n d
    | None -> (
        match String.index_opt s '.' with
        | None -> ( match int_of_string_opt s with Some n -> of_int n | None -> fail () )
        | Some i ->
            let int_part = String.sub s 0 i in
            let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
            if String.length frac_part = 0 then fail ();
            let negative = String.length int_part > 0 && int_part.[0] = '-' in
            let whole =
              if int_part = "" || int_part = "-" then 0
              else match int_of_string_opt int_part with Some n -> n | None -> fail ()
            in
            let frac =
              match int_of_string_opt frac_part with Some n when n >= 0 -> n | _ -> fail ()
            in
            (* 10^digits, refused before [acc * 10] could wrap. *)
            let scale =
              let rec pow acc k =
                if k = 0 then acc else if acc > max_int / 10 then raise Overflow
                else pow (acc * 10) (k - 1)
              in
              pow 1 (String.length frac_part)
            in
            let magnitude = add (of_int (Stdlib.abs whole)) (make frac scale) in
            if negative then neg magnitude else magnitude)
  with Overflow -> fail ()

(* [pow10.(k)] is 10^(k+1), the least int with k+2 digits. *)
let pow10 =
  let a = Array.make 18 10 in
  for k = 1 to 17 do
    a.(k) <- a.(k - 1) * 10
  done;
  a

let write_int b pos n =
  (* The digit count by comparisons, then the digits from the right,
     peeled off the non-positive [-|n|], which unlike [|n|] is
     representable for every int, [min_int] included. *)
  let m = if n < 0 then n else -n in
  let width = ref 1 in
  while !width <= 18 && m <= -pow10.(!width - 1) do
    incr width
  done;
  let start = if n < 0 then pos + 1 else pos in
  if n < 0 then Bytes.set b pos '-';
  let m = ref m in
  for i = start + !width - 1 downto start do
    Bytes.set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  start + !width

let write b pos t =
  let pos = write_int b pos t.num in
  if t.den = 1 then pos
  else begin
    Bytes.set b pos '/';
    write_int b (pos + 1) t.den
  end

let add_int_to_buffer buf n =
  let b = Bytes.create 20 in
  Buffer.add_subbytes buf b 0 (write_int b 0 n)

let add_to_buffer buf t =
  let b = Bytes.create 41 in
  Buffer.add_subbytes buf b 0 (write b 0 t)

let to_string t =
  let b = Bytes.create 41 in
  Bytes.sub_string b 0 (write b 0 t)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let pp_decimal ppf t =
  if is_integer t then Format.fprintf ppf "%d" t.num
  else
    (* Exact decimal when den | 10^k for small k, else 4 decimals. *)
    let rec try_scale k scale =
      if k > 6 then None
      else if scale mod t.den = 0 then Some (k, scale)
      else try_scale (k + 1) (scale * 10)
    in
    match try_scale 1 10 with
    | Some (k, scale) ->
        let scaled = t.num * (scale / t.den) in
        let sign = if scaled < 0 then "-" else "" in
        let scaled = Stdlib.abs scaled in
        Format.fprintf ppf "%s%d.%0*d" sign (scaled / scale) k (scaled mod scale)
    | None -> Format.fprintf ppf "%.4f" (to_float t)

let sum l = List.fold_left add zero l
let sum_array a = Array.fold_left add zero a

(* Infix aliases, last so they do not shadow the integer operators used in
   the definitions above. *)
let ( = ) = equal
let ( <> ) a b = not (equal a b)
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
