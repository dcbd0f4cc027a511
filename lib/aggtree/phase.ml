module Ldb = Dpq_overlay.Ldb
module Sync = Dpq_simrt.Sync_engine
module Metrics = Dpq_simrt.Metrics

type report = {
  rounds : int;
  messages : int;
  max_congestion : int;
  max_message_bits : int;
  total_bits : int;
  local_deliveries : int;
  busiest_node_load : int;
}

let empty_report =
  {
    rounds = 0;
    messages = 0;
    max_congestion = 0;
    max_message_bits = 0;
    total_bits = 0;
    local_deliveries = 0;
    busiest_node_load = 0;
  }

let add_report a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    max_congestion = max a.max_congestion b.max_congestion;
    max_message_bits = max a.max_message_bits b.max_message_bits;
    total_bits = a.total_bits + b.total_bits;
    local_deliveries = a.local_deliveries + b.local_deliveries;
    busiest_node_load = a.busiest_node_load + b.busiest_node_load;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "{rounds=%d; messages=%d; max_congestion=%d; max_message_bits=%d; total_bits=%d; local=%d}"
    r.rounds r.messages r.max_congestion r.max_message_bits r.total_bits
    r.local_deliveries

module Trace = Dpq_obs.Trace

(* Close a trace span with the exact numbers the phase reports — the
   equality the trace-vs-report cross-check in the test suite relies on. *)
let trace_phase_end trace span name r =
  Trace.phase_end trace ~span ~name ~rounds:r.rounds ~messages:r.messages
    ~max_congestion:r.max_congestion ~max_message_bits:r.max_message_bits
    ~total_bits:r.total_bits

let report_of_metrics m rounds =
  {
    rounds;
    messages = Metrics.total_messages m;
    max_congestion = Metrics.max_congestion m;
    max_message_bits = Metrics.max_message_bits m;
    total_bits = Metrics.total_bits m;
    local_deliveries = Metrics.local_deliveries m;
    busiest_node_load = Array.fold_left max 0 (Metrics.node_load m);
  }

let header_bits tree =
  2 * Dpq_util.Bitsize.bits_of_nat_bound (max 1 ((3 * Aggtree.n tree) - 1))

(* Every phase puts only a vnode id on the wire; the value in flight sits in
   a per-phase slot indexed by that id, written once just before the single
   message that vnode sends (up) or receives (down) in the phase.  A
   handler writes only slots that its own later sends read, so faults,
   schedulers and domain-parallel rounds see exactly the sends, order and
   bits that carrying the value itself would give (DESIGN.md §13). *)

type 'a memo = { tree : Aggtree.t; own : 'a array; sub : 'a array }

let memo_parts memo v =
  memo.own.(v) :: List.map (fun c -> memo.sub.(c)) (Aggtree.children memo.tree v)

let up ?trace ?faults ?sched ?par ~tree ~local ~combine ~size_bits () =
  let span = Trace.phase_start trace "up" in
  let n = Aggtree.n tree in
  let nv = 3 * n in
  let header = header_bits tree in
  let own = Array.init nv local in
  (* sub.(v): v's sub-aggregate, written when v completes, before its send *)
  let sub = Array.copy own in
  (* children still to report; -1 once the vnode has completed *)
  let waiting = Array.init nv (fun v -> List.length (Aggtree.children tree v)) in
  let result = ref None in
  (* Own value first, then children by label. *)
  let rec fold acc = function
    | [] -> acc
    | c :: cs ->
        if waiting.(c) >= 0 then failwith "Phase.up: missing child aggregate";
        fold (combine acc sub.(c)) cs
  in
  let complete eng v =
    let total = fold own.(v) (Aggtree.children tree v) in
    sub.(v) <- total;
    waiting.(v) <- -1;
    match Aggtree.parent tree v with
    | None -> result := Some total
    | Some p -> Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner p) v
  in
  let handler eng ~dst:_ ~src:_ c =
    let p = Option.get (Aggtree.parent tree c) in
    let w = waiting.(p) - 1 in
    waiting.(p) <- w;
    if w = 0 then complete eng p
  in
  let eng =
    Sync.create ~n ~size_bits:(fun v -> header + size_bits sub.(v)) ~handler ?trace ?faults
      ?sched ?par ()
  in
  (* Kick off: leaves complete immediately.  Vnodes of removed nodes also
     have no children but are not in the tree — skipping them keeps the
     root's result the only one written. *)
  for v = 0 to nv - 1 do
    if waiting.(v) = 0 && Aggtree.in_tree tree v then complete eng v
  done;
  let rounds = Sync.run_to_quiescence eng in
  let value =
    match !result with
    | Some v -> v
    | None -> failwith "Phase.up: aggregation did not reach the anchor"
  in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "up" report;
  (value, { tree; own; sub }, report)

let down ?trace ?faults ?sched ?par ~tree ~memo ~root_payload ~split ~size_bits () =
  let span = Trace.phase_start trace "down" in
  let n = Aggtree.n tree in
  let nv = 3 * n in
  let header = header_bits tree in
  let retained = Array.make nv None in
  (* inflight.(c): the piece c's parent forwards to it *)
  let inflight = Array.make nv root_payload in
  let rec forward eng v children pieces =
    match (children, pieces) with
    | c :: cs, piece :: ps ->
        inflight.(c) <- piece;
        Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner c) c;
        forward eng v cs ps
    | _ -> ()
  in
  let handle eng v payload =
    let parts = memo_parts memo v in
    let pieces = split ~parts payload in
    if List.length pieces <> List.length parts then
      failwith "Phase.down: split returned wrong arity";
    match pieces with
    | [] -> failwith "Phase.down: empty split"
    | mine :: rest ->
        retained.(v) <- Some mine;
        forward eng v (Aggtree.children tree v) rest
  in
  let handler eng ~dst:_ ~src:_ c = handle eng c inflight.(c) in
  let eng =
    Sync.create ~n ~size_bits:(fun c -> header + size_bits inflight.(c)) ~handler ?trace
      ?faults ?sched ?par ()
  in
  handle eng (Aggtree.root tree) root_payload;
  let rounds = Sync.run_to_quiescence eng in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "down" report;
  (retained, report)

let broadcast ?trace ?faults ?sched ?par ~tree ~payload ~size_bits () =
  let span = Trace.phase_start trace "broadcast" in
  let bits = header_bits tree + size_bits payload in
  let rec announce eng v = function
    | [] -> ()
    | c :: cs ->
        Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner c) c;
        announce eng v cs
  in
  let handler eng ~dst:_ ~src:_ v = announce eng v (Aggtree.children tree v) in
  let eng =
    Sync.create ~n:(Aggtree.n tree) ~size_bits:(fun _ -> bits) ~handler ?trace ?faults ?sched
      ?par ()
  in
  let root = Aggtree.root tree in
  announce eng root (Aggtree.children tree root);
  let rounds = Sync.run_to_quiescence eng in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "broadcast" report;
  report
