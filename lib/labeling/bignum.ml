(** Compact arbitrary-precision natural numbers.

    P-label domains need [m >= (n+1)^h] (Section 3.2.2); for the Auction
    data set that is roughly [78^12], beyond the range of 63-bit integers,
    so P-label endpoints are arbitrary-precision.  Values stay tiny (a
    handful of limbs), so the representation favours simplicity: an array
    of base-2^30 limbs, little-endian, with no trailing zero limb.

    Only the operations required by Algorithms 1 and 2 are provided; all
    are total on naturals except [sub], which raises [Invalid_argument]
    when the result would be negative. *)

type t = int array

let base_bits = 30

let base = 1 lsl base_bits

let mask = base - 1

let zero : t = [||]

let is_zero (a : t) = Array.length a = 0

(* Strips trailing zero limbs to restore the canonical form. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int i : t =
  if i < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs i = if i = 0 then [] else (i land mask) :: limbs (i lsr base_bits) in
  Array.of_list (limbs i)

let one = of_int 1

let to_int_opt (a : t) =
  (* max_int has 62 bits on a 64-bit platform: at most 3 limbs with the
     top limb below 4. *)
  let n = Array.length a in
  if n > 3 || (n = 3 && a.(2) > (max_int lsr (2 * base_bits))) then None
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl base_bits) lor a.(i)
    done;
    Some !v
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let hash (a : t) = Hashtbl.hash a

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let succ a = add a one

let pred a = sub a one

(* Multiplication by a single limb (0 <= k < base). *)
let mul_limb (a : t) k : t =
  if k = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land mask;
      carry := p lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let shift_limbs (a : t) k : t =
  if is_zero a then zero
  else Array.append (Array.make k 0) a

let mul (a : t) (b : t) : t =
  let acc = ref zero in
  Array.iteri (fun i limb -> acc := add !acc (shift_limbs (mul_limb a limb) i)) b;
  !acc

let mul_int (a : t) k : t =
  if k < 0 then invalid_arg "Bignum.mul_int: negative"
  else if k < base then mul_limb a k
  else mul a (of_int k)

(** [divmod_int a k] is [(a / k, a mod k)] for [1 <= k < 2^30]. *)
let divmod_int (a : t) k =
  if k <= 0 || k >= base then invalid_arg "Bignum.divmod_int: divisor out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / k;
    rem := cur mod k
  done;
  (normalize q, !rem)

let div_int a k = fst (divmod_int a k)

(** [div_int_exact a k] divides and checks there is no remainder, which
    is an invariant of every division in the P-labeling algorithms. *)
let div_int_exact a k =
  let q, r = divmod_int a k in
  if r <> 0 then invalid_arg "Bignum.div_int_exact: inexact division";
  q

(** [pow_int b e] is [b ^ e] for a small non-negative base and exponent. *)
let pow_int b e =
  if b < 0 || e < 0 then invalid_arg "Bignum.pow_int: negative";
  let rec go acc n = if n = 0 then acc else go (mul_int acc b) (n - 1) in
  go one e

(* The base-10^9 digits of [a], most significant first ([] for 0). *)
let chunks a =
  let rec go acc cur =
    if is_zero cur then acc
    else
      let q, r = divmod_int cur 1_000_000_000 in
      go (r :: acc) q
  in
  go [] a

let int_digits n =
  let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
  go n 1

let to_string (a : t) =
  match chunks a with
  | [] -> "0"
  | first :: rest ->
    let buf = Buffer.create 32 in
    Buffer.add_string buf (string_of_int first);
    List.iter
      (fun c ->
        for _ = int_digits c to 8 do
          Buffer.add_char buf '0'
        done;
        Buffer.add_string buf (string_of_int c))
      rest;
    Buffer.contents buf

(** [decimal_length a] — [String.length (to_string a)], without
    building the string. *)
let decimal_length (a : t) =
  match chunks a with
  | [] -> 1
  | first :: rest -> int_digits first + (9 * List.length rest)

(* [a * k + c] for [0 <= k, c < base]: one limb multiply-add. *)
let mul_add_limb (a : t) k c : t =
  let la = Array.length a in
  let r = Array.make (la + 1) 0 in
  let carry = ref c in
  for i = 0 to la - 1 do
    let p = (a.(i) * k) + !carry in
    r.(i) <- p land mask;
    carry := p lsr base_bits
  done;
  r.(la) <- !carry;
  normalize r

(* Nine decimal digits per step: [10^9 < base], so each chunk is one
   limb multiply-add. *)
let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bignum.of_string: empty";
  let acc = ref zero and i = ref 0 in
  let stop = ref (match n mod 9 with 0 -> 9 | r -> r) in
  while !i < n do
    let chunk = ref 0 and scale = ref 1 in
    while !i < !stop do
      (match s.[!i] with
      | '0' .. '9' as c -> chunk := (!chunk * 10) + Char.code c - Char.code '0'
      | _ -> invalid_arg "Bignum.of_string: not a digit");
      scale := !scale * 10;
      incr i
    done;
    acc := mul_add_limb !acc !scale !chunk;
    stop := !stop + 9
  done;
  !acc

let pp ppf a = Format.pp_print_string ppf (to_string a)

let min a b = if compare a b <= 0 then a else b

let max a b = if compare a b >= 0 then a else b
