type t = {
  n : int;
  mutable rounds : int;
  mutable total_messages : int;
  mutable total_bits : int;
  mutable local_deliveries : int;
  mutable max_message_bits : int;
  mutable max_congestion : int;
  node_load : int array;
  (* congestion tracking: per-node count for the round currently being
     filled, and the destinations whose count became nonzero in it (each
     listed once); flushed whenever the round advances. *)
  mutable cur_round : int;
  cur_counts : int array;
  mutable touched : int array;
  mutable ntouched : int;
}

let create ~n =
  {
    n;
    rounds = 0;
    total_messages = 0;
    total_bits = 0;
    local_deliveries = 0;
    max_message_bits = 0;
    max_congestion = 0;
    node_load = Array.make n 0;
    cur_round = -1;
    cur_counts = Array.make n 0;
    touched = Array.make (min n 16) 0;
    ntouched = 0;
  }

let n t = t.n

(* The round's maximum lies among the destinations it touched, so only
   those are visited and zeroed: a round costs its deliveries, not n. *)
let flush_round t =
  for i = 0 to t.ntouched - 1 do
    let d = t.touched.(i) in
    let c = t.cur_counts.(d) in
    if c > t.max_congestion then t.max_congestion <- c;
    t.cur_counts.(d) <- 0
  done;
  t.ntouched <- 0

let touch t dst =
  if t.ntouched = Array.length t.touched then begin
    let a = Array.make (min t.n (2 * t.ntouched)) 0 in
    Array.blit t.touched 0 a 0 t.ntouched;
    t.touched <- a
  end;
  t.touched.(t.ntouched) <- dst;
  t.ntouched <- t.ntouched + 1

let record_delivery t ~round ~dst ~bits =
  if round <> t.cur_round then begin
    flush_round t;
    t.cur_round <- round
  end;
  if round + 1 > t.rounds then t.rounds <- round + 1;
  t.total_messages <- t.total_messages + 1;
  t.total_bits <- t.total_bits + bits;
  if bits > t.max_message_bits then t.max_message_bits <- bits;
  t.node_load.(dst) <- t.node_load.(dst) + 1;
  let c = t.cur_counts.(dst) in
  if c = 0 then touch t dst;
  t.cur_counts.(dst) <- c + 1

let record_local t = t.local_deliveries <- t.local_deliveries + 1
let record_locals t ~count = t.local_deliveries <- t.local_deliveries + count

let rounds t = t.rounds
let total_messages t = t.total_messages
let total_bits t = t.total_bits
let local_deliveries t = t.local_deliveries
let max_message_bits t = t.max_message_bits

let max_congestion t =
  flush_round t;
  t.max_congestion

let node_load t = Array.copy t.node_load

let reset t =
  flush_round t;
  t.rounds <- 0;
  t.total_messages <- 0;
  t.total_bits <- 0;
  t.local_deliveries <- 0;
  t.max_message_bits <- 0;
  t.max_congestion <- 0;
  t.cur_round <- -1;
  Array.fill t.node_load 0 t.n 0

let merge_max acc t =
  acc.rounds <- acc.rounds + rounds t;
  acc.total_messages <- acc.total_messages + total_messages t;
  acc.total_bits <- acc.total_bits + total_bits t;
  acc.local_deliveries <- acc.local_deliveries + local_deliveries t;
  acc.max_message_bits <- max acc.max_message_bits (max_message_bits t);
  acc.max_congestion <- max acc.max_congestion (max_congestion t);
  let load = node_load t in
  Array.iteri (fun i v -> acc.node_load.(i) <- acc.node_load.(i) + v) load
