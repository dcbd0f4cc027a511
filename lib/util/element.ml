type prio = int
type t = { prio : prio; origin : int; seq : int; payload : int }

let make ~prio ~origin ~seq ?(payload = 0) () = { prio; origin; seq; payload }

let compare a b =
  let c = Int.compare a.prio b.prio in
  if c <> 0 then c
  else
    let c = Int.compare a.origin b.origin in
    if c <> 0 then c else Int.compare a.seq b.seq

let equal a b = compare a b = 0
let prio e = e.prio

let to_string e =
  Printf.sprintf "e(p=%d,%d.%d)" e.prio e.origin e.seq

let pp fmt e = Format.pp_print_string fmt (to_string e)

let rank_in e all =
  let sorted = List.sort compare all in
  let rec go i = function
    | [] -> invalid_arg "Element.rank_in: element not present"
    | x :: tl -> if equal x e then i else go (i + 1) tl
  in
  go 1 sorted

let encoded_bits e =
  Bitsize.bits_of_int e.prio + Bitsize.bits_of_int e.origin + Bitsize.bits_of_int e.seq
  + Bitsize.bits_of_int e.payload
