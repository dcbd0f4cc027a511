module Element = Dpq_util.Element
module Interval = Dpq_util.Interval
module Bitsize = Dpq_util.Bitsize
module Hashing = Dpq_util.Hashing
module Rng = Dpq_util.Rng
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Sync = Dpq_simrt.Sync_engine
module Metrics = Dpq_simrt.Metrics

type diagnostics = {
  initial_candidates : int;
  phase1_iterations : int;
  phase1_skipped : bool;
  phase1_candidates : int list;
  phase2_candidates : int list;
  phase2_rep_counts : int list;
  mean_trees_per_node : float;
  phase3_candidates : int;
}

type impl = [ `Aggregated | `Pairwise ]

type result = {
  element : Element.t;
  report : Phase.report;
  diagnostics : diagnostics;
  phase1_window : (int * int) option;
}

(* Test-only: corrupt the first vote of every multi-item aggregated message
   (smaller/larger swapped) — a planted wrong-aggregation bug the
   differential test layer must catch.  Never set outside tests. *)
let unsafe_misaggregate_votes = ref false

let select_seq elements ~k =
  let sorted = List.sort Element.compare elements in
  if k < 1 || k > List.length sorted then
    invalid_arg (Printf.sprintf "Kselect.select_seq: k=%d outside [1,%d]" k (List.length sorted));
  List.nth sorted (k - 1)

let kth_statistics elements ~k =
  let e = select_seq elements ~k in
  let below = List.length (List.filter (fun x -> Element.compare x e < 0) elements) in
  let above = List.length (List.filter (fun x -> Element.compare x e > 0) elements) in
  (e, below, above)

(* ------------------------------------------------------------------------ *)
(* The distributed sorting stage (Algorithm 3, Phase 2b).                    *)
(* ------------------------------------------------------------------------ *)

type spayload =
  | Disseminate of {
      i : int;  (** which representative / copy tree *)
      a : int;
      b : int;  (** interval of copy indices this subtree is responsible for *)
      x : int;  (** emulated de Bruijn bitstring (-1: derive at the root) *)
      point : float;  (** the point this tree node is addressed by *)
      parent_point : float;  (** -1.0 for the root *)
      parent_mid : int;
      elt : Element.t;
    }
  | Rendezvous of { i : int; j : int; elt : Element.t; return_point : float }
  | Vote of { i : int; j : int; smaller : int; larger : int }
  | Child_sum of { i : int; parent_mid : int; smaller : int; larger : int }

(* [pbits] caches [spayload_bits] of [payload], computed once when the
   message is launched: the engine charges [size_bits] on every hop, and
   re-walking the payload's bit-length per delivery was a measurable slice
   of the sorting storm. *)
type smsg = { path : Ldb.vnode list; pbits : int; payload : spayload }

(* Aggregated-stage payloads carry only what the simulator cannot resolve
   from its per-stage state: a copy's element is its representative's
   element, and the point a payload is addressed to resolves to the vnode
   managing it.  The bits charged are still those of the full wire payload
   (points and elements included), computed by the same functions as the
   pairwise stage's. *)
type item =
  | Copy of { i : int; a : int; b : int; x : int; parent_mid : int }
  | Meet of { i : int; j : int }
  | Ballot of { i : int; j : int; smaller : int; larger : int }
  | Sum of { i : int; parent_mid : int; smaller : int; larger : int }

(* Aggregated wire format: ONE engine message per (src, dst, round) carrying
   every sorting-stage item crossing that edge this round, as the slice
   [off, off + len) of an array shared by one activation's messages.  An
   item for a co-located vnode travels alone over the free virtual edge,
   whose size is never charged. *)
type amsg = Local of item | Combined of { items : item array; off : int; len : int; abits : int }

(* A node's items awaiting its next activation, in post order, with the
   real node each is bound for. *)
type outbox = { mutable obuf : item array; mutable odst : int array; mutable olen : int }

type tnode = {
  t_i : int;
  t_mid : int;
  t_elt : Element.t;
  t_vnode : Ldb.vnode;
  t_point : float;
  t_parent_point : float;
  t_parent_mid : int;
  t_expected_children : int;
  mutable t_smaller : int;
  mutable t_larger : int;
  mutable t_has_own_vote : bool;
  mutable t_child_sums : int;
  mutable t_done : bool;
}

(* Payload bits of the four sorting-stage payloads, shared by both stages.
   [point_bits] is one point's width, [elt_bits] the carried element's. *)
let disseminate_bits ~point_bits ~elt_bits ~i ~a ~b ~x ~parent_mid =
  Bitsize.bits_of_int i + Bitsize.bits_of_int a + Bitsize.bits_of_int b + Bitsize.bits_of_int x
  + (2 * point_bits) + Bitsize.bits_of_int parent_mid + elt_bits

let rendezvous_bits ~point_bits ~elt_bits ~i ~j =
  Bitsize.bits_of_int i + Bitsize.bits_of_int j + elt_bits + point_bits

let vote_bits ~i ~j ~smaller ~larger =
  Bitsize.bits_of_int i + Bitsize.bits_of_int j + smaller + larger + 2

let child_sum_bits ~i ~parent_mid ~smaller ~larger =
  Bitsize.bits_of_int i + Bitsize.bits_of_int parent_mid + Bitsize.bits_of_int smaller
  + Bitsize.bits_of_int larger

let point_bits_of ldb = 2 * Bitsize.log2_ceil (max 2 (Ldb.n ldb))

let spayload_bits ldb p =
  let point_bits = point_bits_of ldb in
  match p with
  | Disseminate d ->
      disseminate_bits ~point_bits ~elt_bits:(Element.encoded_bits d.elt) ~i:d.i ~a:d.a ~b:d.b
        ~x:d.x ~parent_mid:d.parent_mid
  | Rendezvous r -> rendezvous_bits ~point_bits ~elt_bits:(Element.encoded_bits r.elt) ~i:r.i ~j:r.j
  | Vote v -> vote_bits ~i:v.i ~j:v.j ~smaller:v.smaller ~larger:v.larger
  | Child_sum c ->
      child_sum_bits ~i:c.i ~parent_mid:c.parent_mid ~smaller:c.smaller ~larger:c.larger

let report_of_engine rounds m =
  Phase.
    {
      rounds;
      messages = Metrics.total_messages m;
      max_congestion = Metrics.max_congestion m;
      max_message_bits = Metrics.max_message_bits m;
      total_bits = Metrics.total_bits m;
      local_deliveries = Metrics.local_deliveries m;
      busiest_node_load = Array.fold_left max 0 (Metrics.node_load m);
    }

(* [elts.(i)] is representative i's element, i in 1..n'. *)
let elts_of_reps ~n' reps =
  let elts = Array.make (n' + 1) (Element.make ~prio:0 ~origin:0 ~seq:0 ()) in
  Array.iter (List.iter (fun (pos, elt) -> elts.(pos) <- elt)) reps;
  elts

(* [orders.(i)] is representative i's order, 0 while unknown. *)
let orders_to_array ~elts orders =
  let n' = Array.length orders - 1 in
  let got = Array.fold_left (fun acc o -> if o <> 0 then acc + 1 else acc) 0 orders in
  if got <> n' then
    failwith
      (Printf.sprintf "Kselect.sorting_stage: got %d orders for %d representatives" got n');
  let by_order = Array.make (n' + 1) None in
  for i = 1 to n' do
    let order = orders.(i) in
    if order < 1 || order > n' then failwith "Kselect.sorting_stage: order out of range";
    (match by_order.(order) with
    | Some _ -> failwith "Kselect.sorting_stage: duplicate order"
    | None -> ());
    by_order.(order) <- Some elts.(i)
  done;
  Array.map Option.get (Array.sub by_order 1 n')

let phase_end trace ~span (r : Phase.report) =
  Dpq_obs.Trace.phase_end trace ~span ~name:"kselect-sort" ~rounds:r.rounds ~messages:r.messages
    ~max_congestion:r.max_congestion ~max_message_bits:r.max_message_bits ~total_bits:r.total_bits

(* [reps]: for each real node, the (position, element) pairs it contributed.
   Returns the element of each order (index 1..n') plus the number of
   (node, tree) participations, and adds the engine costs to [reports].

   The pre-optimization protocol: every copy-tree edge is a de Bruijn hop,
   every rendezvous and vote is routed hop-by-hop to the hashed pair point,
   and every payload is its own wire message.  Kept executable as the
   reference the differential test layer runs the aggregated rewrite
   against. *)
let sorting_stage_pairwise ~trace ~faults ~sched ~ldb ~hash_pos ~hash_pair
    ~(reps : (int * Element.t) list array) ~n' ~(add_report : Phase.report -> unit) =
  let span = Dpq_obs.Trace.phase_start trace "kselect-sort" in
  let n = Ldb.n ldb in
  let d' = max 1 (Bitsize.log2_ceil (max 2 n')) in
  let point_of_bits x = float_of_int x /. float_of_int (1 lsl d') in
  let pos_point i = Hashing.to_unit_interval hash_pos i in
  let pair_point i j = Hashing.pair_to_unit_interval hash_pair (min i j) (max i j) in
  let tnodes : (int * int, tnode) Hashtbl.t = Hashtbl.create (4 * n') in
  let rendez : (int * int, int * Element.t * float) Hashtbl.t = Hashtbl.create (n' * n' / 2) in
  let orders = Array.make (n' + 1) 0 in
  let participations : (int * int, unit) Hashtbl.t = Hashtbl.create (4 * n') in
  let elts = elts_of_reps ~n' reps in
  let routing_header =
    let nn = max 2 n in
    (2 * Bitsize.log2_ceil nn) + Bitsize.log2_ceil nn
  in
  let size_bits m = routing_header + m.pbits in
  let send_along eng path payload =
    let pbits = spayload_bits ldb payload in
    match path with
    | [] -> assert false
    | [ only ] ->
        Sync.send eng ~src:(Ldb.owner only) ~dst:(Ldb.owner only) { path = [ only ]; pbits; payload }
    | first :: (next :: _ as rest) ->
        Sync.send eng ~src:(Ldb.owner first) ~dst:(Ldb.owner next) { path = rest; pbits; payload }
  in
  let route_from eng ~src_vnode ~point payload =
    send_along eng (Ldb.route_path ldb ~src:src_vnode ~point) payload
  in
  (* A single de Bruijn edge (copy-tree dissemination / vote aggregation):
     O(1) expected messages instead of a full O(log n) route. *)
  let hop_from eng ~src_vnode ~from_point ~bit ~point payload =
    send_along eng (fst (Ldb.debruijn_hop ldb ~src:src_vnode ~from_point ~bit ~point)) payload
  in
  let hop_back_from eng ~src_vnode ~from_point ~point payload =
    send_along eng (fst (Ldb.debruijn_hop_back ldb ~src:src_vnode ~from_point ~point)) payload
  in
  let try_complete eng tn =
    if
      (not tn.t_done) && tn.t_has_own_vote
      && tn.t_child_sums = tn.t_expected_children
    then begin
      tn.t_done <- true;
      if tn.t_parent_point < 0.0 then
        (* Root of T(v_i): the combined vote vector yields the order. *)
        orders.(tn.t_i) <- tn.t_smaller + 1
      else
        hop_back_from eng ~src_vnode:tn.t_vnode ~from_point:tn.t_point ~point:tn.t_parent_point
          (Child_sum
             {
               i = tn.t_i;
               parent_mid = tn.t_parent_mid;
               smaller = tn.t_smaller;
               larger = tn.t_larger;
             })
    end
  in
  let rec handle_payload eng final payload =
    match payload with
    | Disseminate d ->
        let x =
          if d.x >= 0 then d.x
          else
            min ((1 lsl d') - 1) (int_of_float (Ldb.label ldb final *. float_of_int (1 lsl d')))
        in
        let mid = (d.a + d.b) / 2 in
        let left = d.a <= mid - 1 and right = mid + 1 <= d.b in
        let tn =
          {
            t_i = d.i;
            t_mid = mid;
            t_elt = d.elt;
            t_vnode = final;
            t_point = d.point;
            t_parent_point = d.parent_point;
            t_parent_mid = d.parent_mid;
            t_expected_children = (if left then 1 else 0) + (if right then 1 else 0);
            t_smaller = 0;
            t_larger = 0;
            t_has_own_vote = false;
            t_child_sums = 0;
            t_done = false;
          }
        in
        Hashtbl.replace tnodes (d.i, mid) tn;
        Hashtbl.replace participations (Ldb.owner final, d.i) ();
        (* Spread the copies: prepend 0 / 1 to the bitstring (Phase 2b). *)
        let shifted = x lsr 1 in
        let hi = 1 lsl (d' - 1) in
        if left then begin
          let xl = shifted in
          hop_from eng ~src_vnode:final ~from_point:d.point ~bit:0 ~point:(point_of_bits xl)
            (Disseminate
               {
                 i = d.i;
                 a = d.a;
                 b = mid - 1;
                 x = xl;
                 point = point_of_bits xl;
                 parent_point = d.point;
                 parent_mid = mid;
                 elt = d.elt;
               })
        end;
        if right then begin
          let xr = shifted lor hi in
          hop_from eng ~src_vnode:final ~from_point:d.point ~bit:1 ~point:(point_of_bits xr)
            (Disseminate
               {
                 i = d.i;
                 a = mid + 1;
                 b = d.b;
                 x = xr;
                 point = point_of_bits xr;
                 parent_point = d.point;
                 parent_mid = mid;
                 elt = d.elt;
               })
        end;
        (* This node holds copy c_{i,mid}: rendezvous with c_{mid,i}. *)
        route_from eng ~src_vnode:final ~point:(pair_point d.i mid)
          (Rendezvous { i = d.i; j = mid; elt = d.elt; return_point = d.point })
    | Rendezvous r ->
        if r.i = r.j then
          (* A copy paired with itself contributes nothing to the order. *)
          route_from eng ~src_vnode:final ~point:r.return_point
            (Vote { i = r.i; j = r.j; smaller = 0; larger = 0 })
        else begin
          let key = (min r.i r.j, max r.i r.j) in
          match Hashtbl.find_opt rendez key with
          | None -> Hashtbl.replace rendez key (r.i, r.elt, r.return_point)
          | Some (i0, elt0, rp0) ->
              Hashtbl.remove rendez key;
              (* c_{i0,j0} and c_{r.i,r.j} meet here; compare priorities
                 (total order) and report who saw a smaller element. *)
              let first_smaller = Element.compare elt0 r.elt < 0 in
              let vote_to_first = if first_smaller then (0, 1) else (1, 0) in
              let vote_to_second = if first_smaller then (1, 0) else (0, 1) in
              let s0, l0 = vote_to_first and s1, l1 = vote_to_second in
              route_from eng ~src_vnode:final ~point:rp0
                (Vote { i = i0; j = r.i; smaller = s0; larger = l0 });
              route_from eng ~src_vnode:final ~point:r.return_point
                (Vote { i = r.i; j = i0; smaller = s1; larger = l1 })
        end
    | Vote v -> (
        match Hashtbl.find_opt tnodes (v.i, v.j) with
        | None -> failwith "Kselect.sorting_stage: vote for unknown tree node"
        | Some tn ->
            tn.t_smaller <- tn.t_smaller + v.smaller;
            tn.t_larger <- tn.t_larger + v.larger;
            tn.t_has_own_vote <- true;
            try_complete eng tn)
    | Child_sum c -> (
        match Hashtbl.find_opt tnodes (c.i, c.parent_mid) with
        | None -> failwith "Kselect.sorting_stage: child sum for unknown tree node"
        | Some tn ->
            tn.t_smaller <- tn.t_smaller + c.smaller;
            tn.t_larger <- tn.t_larger + c.larger;
            tn.t_child_sums <- tn.t_child_sums + 1;
            try_complete eng tn)
  and handler eng ~dst:_ ~src:_ msg =
    match msg.path with
    | [] -> failwith "Kselect.sorting_stage: empty path"
    | [ final ] -> handle_payload eng final msg.payload
    | cur :: (next :: _ as rest) ->
        ignore cur;
        Sync.send eng ~src:(Ldb.owner cur) ~dst:(Ldb.owner next)
          { path = rest; pbits = msg.pbits; payload = msg.payload }
  in
  let eng = Sync.create ~n ~size_bits ~handler ?trace ?faults ?sched () in
  (* Kick off: every chosen representative is routed to the node responsible
     for its position; that node becomes the root v_i of copy tree T(v_i). *)
  Array.iteri
    (fun node pairs ->
      List.iter
        (fun (pos, elt) ->
          let src_vnode = Ldb.vnode ~owner:node Ldb.Middle in
          route_from eng ~src_vnode ~point:(pos_point pos)
            (Disseminate
               {
                 i = pos;
                 a = 1;
                 b = n';
                 x = -1;
                 point = pos_point pos;
                 parent_point = -1.0;
                 parent_mid = -1;
                 elt;
               }))
        pairs)
    reps;
  let rounds = Sync.run_to_quiescence ~max_rounds:200_000 eng in
  let stage_report = report_of_engine rounds (Sync.metrics eng) in
  add_report stage_report;
  phase_end trace ~span stage_report;
  (orders_to_array ~elts orders, Hashtbl.length participations)

(* The aggregated sorting stage: same copy trees, same hashed pair points,
   same vote algebra — but every payload is addressed directly to its
   destination's manager and buffered in a per-node outbox; each node's
   activation flushes ONE combined vector message per destination per
   round.  Messages per stage drop from Θ(n'² log n) wire words to the
   number of busy (src, dst) edges per round.

   The simulator's own state lives in flat arrays allocated once per stage:
   copy c_{i,j} and the rendezvous slot of pair {i,j} (i <= j) sit at index
   i·(n'+1)+j, and participations are one bitset over (node, tree).  Each
   copy records the vnode its Copy item was delivered to, i.e. the manager
   of the point it was addressed by, so its ballot and its children's sums
   go straight back there.  Managers of bitstring points and pair points
   are resolved once per stage. *)
let sorting_stage_aggregated ~trace ~faults ~sched ~ldb ~hash_pos ~hash_pair
    ~(reps : (int * Element.t) list array) ~n' ~(add_report : Phase.report -> unit) =
  let span = Dpq_obs.Trace.phase_start trace "kselect-sort" in
  let n = Ldb.n ldb in
  let d' = max 1 (Bitsize.log2_ceil (max 2 n')) in
  let w = n' + 1 in
  let elts = elts_of_reps ~n' reps in
  let elt_bits = Array.map Element.encoded_bits elts in
  (* copy c_{i,j}: its vnode (-1 until created), parent, tallies, and the
     ballot plus child sums it still waits for *)
  let cvnode = Array.make (w * w) (-1) in
  let cparent = Array.make (w * w) 0 in
  let csmaller = Array.make (w * w) 0 in
  let clarger = Array.make (w * w) 0 in
  let cwaiting = Array.make (w * w) 0 in
  let rslot = Array.make (w * w) 0 (* first copy index to arrive, 0: none *) in
  let pair_mgr = Array.make (w * w) (-1) in
  let bits_mgr = Array.make (1 lsl d') (-1) in
  let root_mgr =
    Array.init w (fun i ->
        if i = 0 then -1 else Ldb.manager_of_point ldb (Hashing.to_unit_interval hash_pos i))
  in
  let orders = Array.make w 0 in
  let participated = Bytes.make (((n * w) + 7) / 8) '\000' in
  let participations = ref 0 in
  let point_bits = point_bits_of ldb in
  let routing_header = point_bits + Bitsize.log2_ceil (max 2 n) in
  let copy_mgr ~i ~x =
    if x < 0 then root_mgr.(i)
    else begin
      if bits_mgr.(x) < 0 then
        bits_mgr.(x) <- Ldb.manager_of_point ldb (float_of_int x /. float_of_int (1 lsl d'));
      bits_mgr.(x)
    end
  in
  let dest_of = function
    | Copy c -> copy_mgr ~i:c.i ~x:c.x
    | Meet { i; j } ->
        let key = (min i j * w) + max i j in
        if pair_mgr.(key) < 0 then
          pair_mgr.(key) <-
            Ldb.manager_of_point ldb (Hashing.pair_to_unit_interval hash_pair (min i j) (max i j));
        pair_mgr.(key)
    | Ballot { i; j; _ } -> cvnode.((i * w) + j)
    | Sum { i; parent_mid; _ } -> cvnode.((i * w) + parent_mid)
  in
  (* Each item additionally ships its destination vnode address. *)
  let item_bits it =
    point_bits + 2
    +
    match it with
    | Copy { i; a; b; x; parent_mid } ->
        disseminate_bits ~point_bits ~elt_bits:elt_bits.(i) ~i ~a ~b ~x ~parent_mid
    | Meet { i; j } -> rendezvous_bits ~point_bits ~elt_bits:elt_bits.(i) ~i ~j
    | Ballot { i; j; smaller; larger } -> vote_bits ~i ~j ~smaller ~larger
    | Sum { i; parent_mid; smaller; larger } -> child_sum_bits ~i ~parent_mid ~smaller ~larger
  in
  let boxes = Array.init n (fun _ -> { obuf = [||]; odst = [||]; olen = 0 }) in
  let buffered = ref 0 in
  let post eng ~src it =
    let dst = Ldb.owner (dest_of it) in
    if dst = src then
      (* Free virtual edge: deliver within the same activation. *)
      Sync.send eng ~src ~dst (Local it)
    else begin
      let box = boxes.(src) in
      let len = box.olen in
      if len = Array.length box.obuf then begin
        let cap = max 8 (2 * len) in
        let grow a fill = Array.append a (Array.make (cap - len) fill) in
        box.obuf <- grow box.obuf it;
        box.odst <- grow box.odst 0
      end;
      box.obuf.(len) <- it;
      box.odst.(len) <- dst;
      box.olen <- len + 1;
      incr buffered
    end
  in
  (* Add a vote or child sum to copy [c]; once it has all of them, the root
     yields its representative's order and any other copy reports to its
     parent. *)
  let tally eng ~self c ~smaller ~larger what =
    if cvnode.(c) < 0 then failwith ("Kselect.sorting_stage: " ^ what ^ " for unknown tree node");
    csmaller.(c) <- csmaller.(c) + smaller;
    clarger.(c) <- clarger.(c) + larger;
    cwaiting.(c) <- cwaiting.(c) - 1;
    if cwaiting.(c) = 0 then begin
      let i = c / w in
      if cparent.(c) < 0 then orders.(i) <- csmaller.(c) + 1
      else
        post eng ~src:self
          (Sum { i; parent_mid = cparent.(c); smaller = csmaller.(c); larger = clarger.(c) })
    end
  in
  let handle eng self = function
    | Copy { i; a; b; x; parent_mid } ->
        let final = copy_mgr ~i ~x in
        let x =
          if x >= 0 then x
          else min ((1 lsl d') - 1) (int_of_float (Ldb.label ldb final *. float_of_int (1 lsl d')))
        in
        let mid = (a + b) / 2 in
        let left = a <= mid - 1 and right = mid + 1 <= b in
        let c = (i * w) + mid in
        cvnode.(c) <- final;
        cparent.(c) <- parent_mid;
        cwaiting.(c) <- 1 + (if left then 1 else 0) + if right then 1 else 0;
        let bit = (self * w) + i in
        let byte = Char.code (Bytes.get participated (bit lsr 3)) in
        if byte land (1 lsl (bit land 7)) = 0 then begin
          Bytes.set participated (bit lsr 3) (Char.chr (byte lor (1 lsl (bit land 7))));
          incr participations
        end;
        (* Spread the copies: prepend 0 / 1 to the bitstring (Phase 2b). *)
        let shifted = x lsr 1 in
        if left then post eng ~src:self (Copy { i; a; b = mid - 1; x = shifted; parent_mid = mid });
        if right then
          post eng ~src:self
            (Copy { i; a = mid + 1; b; x = shifted lor (1 lsl (d' - 1)); parent_mid = mid });
        (* This node holds copy c_{i,mid}: rendezvous with c_{mid,i}. *)
        post eng ~src:self (Meet { i; j = mid })
    | Meet { i; j } ->
        if i = j then
          (* A copy paired with itself contributes nothing to the order. *)
          post eng ~src:self (Ballot { i; j; smaller = 0; larger = 0 })
        else begin
          let key = (min i j * w) + max i j in
          let i0 = rslot.(key) in
          if i0 = 0 then rslot.(key) <- i
          else begin
            rslot.(key) <- 0;
            (* c_{i0,i} and c_{i,i0} meet here; compare priorities (total
               order) and report who saw a smaller element. *)
            let s0 = if Element.compare elts.(i0) elts.(i) < 0 then 0 else 1 in
            post eng ~src:self (Ballot { i = i0; j = i; smaller = s0; larger = 1 - s0 });
            post eng ~src:self (Ballot { i; j = i0; smaller = 1 - s0; larger = s0 })
          end
        end
    | Ballot { i; j; smaller; larger } -> tally eng ~self ((i * w) + j) ~smaller ~larger "vote"
    | Sum { i; parent_mid; smaller; larger } ->
        tally eng ~self ((i * w) + parent_mid) ~smaller ~larger "child sum"
  in
  let handler eng ~dst ~src:_ = function
    | Local it -> handle eng dst it
    | Combined m ->
        for p = m.off to m.off + m.len - 1 do
          handle eng dst m.items.(p)
        done
  in
  (* Per-stage scratch for grouping one outbox by destination: the distinct
     destinations, and per destination its item count (then fill cursor)
     and bits. *)
  let dsts = Array.make n 0 and count = Array.make n 0 and cbits = Array.make n 0 in
  let activate eng node =
    let box = boxes.(node) in
    let len = box.olen in
    if len > 0 then begin
      (* Distinct destinations, kept ascending by insertion: a node's
         outbox reaches only a handful of them per round. *)
      let nd = ref 0 in
      for p = 0 to len - 1 do
        let d = box.odst.(p) in
        if count.(d) = 0 then begin
          let q = ref !nd in
          while !q > 0 && dsts.(!q - 1) > d do
            dsts.(!q) <- dsts.(!q - 1);
            decr q
          done;
          dsts.(!q) <- d;
          incr nd
        end;
        count.(d) <- count.(d) + 1;
        cbits.(d) <- cbits.(d) + item_bits box.obuf.(p)
      done;
      (* Counting sort into one array, stable so each slice keeps post
         order; [count.(d)] becomes d's fill cursor, then its slice end. *)
      let off = ref 0 in
      for q = 0 to !nd - 1 do
        let d = dsts.(q) in
        let c = count.(d) in
        count.(d) <- !off;
        off := !off + c
      done;
      let items = Array.make len box.obuf.(0) in
      for p = 0 to len - 1 do
        let d = box.odst.(p) in
        items.(count.(d)) <- box.obuf.(p);
        count.(d) <- count.(d) + 1
      done;
      box.olen <- 0;
      buffered := !buffered - len;
      let off = ref 0 in
      for q = 0 to !nd - 1 do
        let d = dsts.(q) in
        let stop = count.(d) in
        (if !unsafe_misaggregate_votes && stop - !off >= 2 then
           match items.(!off) with
           | Ballot { i; j; smaller; larger } ->
               items.(!off) <- Ballot { i; j; smaller = larger; larger = smaller }
           | _ -> ());
        Sync.send eng ~src:node ~dst:d
          (Combined { items; off = !off; len = stop - !off; abits = routing_header + cbits.(d) });
        count.(d) <- 0;
        cbits.(d) <- 0;
        off := stop
      done
    end
  in
  let size_bits = function
    | Local it -> routing_header + item_bits it
    | Combined m -> m.abits
  in
  let eng = Sync.create ~n ~size_bits ~handler ~activate ?trace ?faults ?sched () in
  (* Kick off: every chosen representative is routed to the node responsible
     for its position; that node becomes the root v_i of copy tree T(v_i). *)
  Array.iteri
    (fun node pairs ->
      List.iter
        (fun (pos, _) ->
          post eng ~src:node (Copy { i = pos; a = 1; b = n'; x = -1; parent_mid = -1 }))
        pairs)
    reps;
  (* [run_to_quiescence] would stop while combined messages still sit in the
     outboxes (they are not in flight until an activation flushes them), so
     the stage drives rounds itself. *)
  let rounds = ref 0 in
  while !buffered > 0 || Sync.pending eng > 0 || Sync.unacked eng > 0 do
    if !rounds >= 200_000 then failwith "Kselect.sorting_stage: exceeded round budget";
    Sync.step eng;
    incr rounds
  done;
  let stage_report = report_of_engine !rounds (Sync.metrics eng) in
  add_report stage_report;
  phase_end trace ~span stage_report;
  (orders_to_array ~elts orders, !participations)

(* ------------------------------------------------------------------------ *)
(* The full protocol.                                                        *)
(* ------------------------------------------------------------------------ *)

type state = {
  tree : Aggtree.t;
  ldb : Ldb.t;
  cands : Element.t list array; (* v.C per real node *)
  mutable n_remaining : int; (* v0.N *)
  mutable k : int; (* v0.k *)
  mutable report : Phase.report;
  rng : Rng.t;
  hash_pos : Hashing.t;
  hash_pair : Hashing.t;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
}

let add_report st r = st.report <- Phase.add_report st.report r

let int_bits = Bitsize.bits_of_int

(* Aggregation-phase helpers, all charged to the report. *)
let bcast st payload_bits =
  add_report st
    (Phase.broadcast ?trace:st.trace ?faults:st.faults ?sched:st.sched ~tree:st.tree ~payload:() ~size_bits:(fun () -> payload_bits) ())

let up st ~local ~combine ~size_bits =
  let v, memo, r = Phase.up ?trace:st.trace ?faults:st.faults ?sched:st.sched ~tree:st.tree ~local ~combine ~size_bits () in
  add_report st r;
  (v, memo)

(* -------------------------------------------------------------- Phase 1 *)

(* A bound aggregated over the tree.  [Neutral] is the combine identity
   (virtual nodes and, where safe, candidate-poor real nodes); [Unbounded]
   poisons the bound (no pruning on that side this iteration); [B p] is an
   actual priority. *)
type bound = Neutral | Unbounded | B of int

let combine_bound pick a b =
  match (a, b) with
  | Unbounded, _ | _, Unbounded -> Unbounded
  | Neutral, x | x, Neutral -> x
  | B x, B y -> B (pick x y)

let phase1_iteration st =
  let n = Ldb.n st.ldb in
  let k = st.k in
  bcast st (2 * int_bits (max n st.n_remaining));
  (* Local P_min / P_max: the ⌊k/n⌋-th and ⌈k/n⌉-th smallest local
     candidates.  A node with fewer than ⌊k/n⌋ candidates may safely stay
     Neutral for P_min (it holds at most ⌊k/n⌋−1 elements below anything, so
     the counting argument of Lemma 4.3 still applies), but a node with
     fewer than ⌈k/n⌉ candidates must poison P_max — without its report the
     other nodes' ⌈k/n⌉-th elements no longer account for k elements.

     Both quantile indices divide by the number of nodes that actually
     report a local bound — the LIVE count.  After a kill [Ldb.n] still
     counts the dead slot, and dividing by it inflates the per-node
     guarantee: with k = m, n = 6 but only 5 survivors, ⌈k/n⌉ = 1 lets
     every survivor vote its minimum for P_max, the five votes only
     account for 5 < k elements, and a top-k element gets pruned — k then
     exceeds the survivor count and Phase 3 indexes past its array. *)
  let live = Ldb.live_count st.ldb in
  let k_lo = k / live and k_hi = (k + live - 1) / live in
  let local_minmax node =
    let sorted = List.sort Element.compare st.cands.(node) in
    let len = List.length sorted in
    let pmin =
      if k_lo < 1 then Unbounded
      else if len >= k_lo then B (Element.prio (List.nth sorted (k_lo - 1)))
      else Neutral
    in
    let pmax =
      if len >= k_hi && k_hi >= 1 then B (Element.prio (List.nth sorted (k_hi - 1)))
      else Unbounded
    in
    (pmin, pmax)
  in
  let combine (min1, max1) (min2, max2) =
    (combine_bound min min1 min2, combine_bound max max1 max2)
  in
  let (pmin, pmax), _ =
    up st
      ~local:(fun v ->
        match Ldb.kind v with
        | Ldb.Middle -> local_minmax (Ldb.owner v)
        | _ -> (Neutral, Neutral))
      ~combine
      ~size_bits:(fun _ -> 2 * int_bits st.n_remaining)
  in
  bcast st (2 * int_bits st.n_remaining);
  (* Prune strictly outside [P_min, P_max]; count per side. *)
  let removed_below = ref 0 and removed_above = ref 0 in
  Array.iteri
    (fun node cs ->
      let keep =
        List.filter
          (fun e ->
            let p = Element.prio e in
            let below = match pmin with B b -> p < b | _ -> false in
            let above = match pmax with B b -> p > b | _ -> false in
            if below then incr removed_below;
            if above then incr removed_above;
            (not below) && not above)
          cs
      in
      st.cands.(node) <- keep)
    st.cands;
  (* Charge the (k', k'') count aggregation. *)
  let _, _ =
    up st
      ~local:(fun _ -> (0, 0))
      ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
      ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
  in
  st.k <- st.k - !removed_below;
  st.n_remaining <- st.n_remaining - !removed_below - !removed_above;
  (pmin, pmax)

(* Sample reuse (the cross-batch hint): the caller ships the [lo, hi]
   priority window a previous full Phase 1 converged to.  One broadcast +
   one exact count aggregation verify it against the CURRENT candidate
   multiset with the same unconditional safety guards the phase-2 pruning
   uses: prune below [lo] only if fewer than k candidates sit strictly
   under it, accept the window at all only if it still covers the k-th
   candidate (count(≤ hi) ≥ k).  A stale window therefore costs two tree
   traversals and falls back to the full Phase 1 — it can never select the
   wrong element. *)
let apply_hint st ~lo ~hi =
  bcast st (int_bits (max 1 lo) + int_bits (max 1 hi));
  let local node =
    List.fold_left
      (fun (bl, bh) e ->
        let p = Element.prio e in
        ((if p < lo then bl + 1 else bl), (if p <= hi then bh + 1 else bh)))
      (0, 0) st.cands.(node)
  in
  let (below_lo, upto_hi), _ =
    up st
      ~local:(fun v -> match Ldb.kind v with Ldb.Middle -> local (Ldb.owner v) | _ -> (0, 0))
      ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
      ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
  in
  if upto_hi < st.k then false
  else begin
    let prune_below = below_lo > 0 && below_lo < st.k in
    let prune_above = upto_hi < st.n_remaining in
    bcast st 2;
    let removed_below = ref 0 and removed_above = ref 0 in
    if prune_below || prune_above then
      Array.iteri
        (fun node cs ->
          let keep =
            List.filter
              (fun e ->
                let p = Element.prio e in
                let below = prune_below && p < lo in
                let above = prune_above && p > hi in
                if below then incr removed_below;
                if above then incr removed_above;
                (not below) && not above)
              cs
          in
          st.cands.(node) <- keep)
        st.cands;
    st.k <- st.k - !removed_below;
    st.n_remaining <- st.n_remaining - !removed_below - !removed_above;
    true
  end

(* -------------------------------------------------------------- Phase 2 *)

(* Draw representatives, assign positions 1..n' via interval decomposition,
   and return them per node. *)
let draw_representatives st ~prob =
  let chosen = Array.map (fun cs -> List.filter (fun _ -> Rng.bernoulli st.rng ~p:prob) cs) st.cands in
  let counts v =
    match Ldb.kind v with Ldb.Middle -> List.length chosen.(Ldb.owner v) | _ -> 0
  in
  let (n' : int), memo =
    up st ~local:counts ~combine:( + ) ~size_bits:(fun _ -> int_bits (max 1 st.n_remaining))
  in
  if n' = 0 then (0, [||])
  else begin
    let retained, down_r =
      Phase.down ?trace:st.trace ?faults:st.faults ?sched:st.sched ~tree:st.tree ~memo ~root_payload:(Interval.make 1 n')
        ~split:(fun ~parts iv -> Interval.split_sizes iv parts)
        ~size_bits:(fun iv ->
          if Interval.is_empty iv then 2
          else Bitsize.interval_bits ~lo:(Interval.lo iv) ~hi:(Interval.hi iv))
        ()
    in
    add_report st down_r;
    let reps =
      Array.init (Ldb.n st.ldb) (fun node ->
          let mv = Ldb.vnode ~owner:node Ldb.Middle in
          match retained.(mv) with
          | None -> []
          | Some iv -> List.combine (Interval.positions iv) chosen.(node) |> List.map (fun (p, e) -> (p, e)))
    in
    (n', reps)
  end

(* Exact ranks of [c_l] and [c_r] among all candidates via one aggregation:
   per node, the counts of candidates strictly below each. *)
let exact_ranks st c_l c_r =
  bcast st (2 * Element.encoded_bits c_l);
  let local node =
    let below_l = List.length (List.filter (fun e -> Element.compare e c_l < 0) st.cands.(node)) in
    let below_r = List.length (List.filter (fun e -> Element.compare e c_r < 0) st.cands.(node)) in
    (below_l, below_r)
  in
  let (bl, br), _ =
    up st
      ~local:(fun v -> match Ldb.kind v with Ldb.Middle -> local (Ldb.owner v) | _ -> (0, 0))
      ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
      ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
  in
  (bl + 1, br + 1)

let prune_between st ~c_l ~c_r ~prune_below ~prune_above =
  bcast st (2 * Element.encoded_bits c_r);
  let removed_below = ref 0 and removed_above = ref 0 in
  Array.iteri
    (fun node cs ->
      let keep =
        List.filter
          (fun e ->
            let below = prune_below && Element.compare e c_l <= 0 in
            let above = prune_above && Element.compare e c_r > 0 in
            if below then incr removed_below;
            if above && not below then incr removed_above;
            (not below) && not above)
          cs
      in
      st.cands.(node) <- keep)
    st.cands;
  let _ =
    up st
      ~local:(fun _ -> 0)
      ~combine:( + )
      ~size_bits:(fun _ -> int_bits (max 1 st.n_remaining))
  in
  st.k <- st.k - !removed_below;
  st.n_remaining <- st.n_remaining - !removed_below - !removed_above

(* -------------------------------------------------------------- select  *)

let select ?(seed = 1) ?(rep_factor = 4.0) ?(delta_factor = 1.0) ?(impl : impl = `Aggregated)
    ?phase1_hint ?trace ?faults ?sched ~tree ~elements ~k () =
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  if Array.length elements <> n then
    invalid_arg "Kselect.select: elements array length differs from node count";
  let m = Array.fold_left (fun acc l -> acc + List.length l) 0 elements in
  if k < 1 || k > m then
    invalid_arg (Printf.sprintf "Kselect.select: k=%d outside [1,%d]" k m);
  let st =
    {
      tree;
      ldb;
      cands = Array.map (fun l -> l) elements;
      n_remaining = m;
      k;
      report = Phase.empty_report;
      rng = Rng.create ~seed;
      hash_pos = Hashing.create ~seed:(seed + 31337);
      hash_pair = Hashing.create ~seed:(seed + 65537);
      trace;
      faults;
      sched;
    }
  in
  let aggregated = impl = `Aggregated in
  let sorting_stage ~reps ~n' =
    if aggregated then
      sorting_stage_aggregated ~trace ~faults ~sched ~ldb ~hash_pos:st.hash_pos
        ~hash_pair:st.hash_pair ~reps ~n' ~add_report:(add_report st)
    else
      sorting_stage_pairwise ~trace ~faults ~sched ~ldb ~hash_pos:st.hash_pos
        ~hash_pair:st.hash_pair ~reps ~n' ~add_report:(add_report st)
  in
  let diag_p1 = ref [] and diag_p2 = ref [] and diag_reps = ref [] in
  let participations = ref 0 and stages = ref 0 in
  let msgs () = st.report.Phase.messages in
  (* Stop shrinking once everything fits into one exact sorting stage of
     the size Phase 2 would sample anyway (n' ≈ 4√n). *)
  let threshold = max (int_of_float (rep_factor *. sqrt (float_of_int n))) 32 in
  (* Small batches skip straight to the Phase 3 exact sort: the whole
     candidate set is no bigger than the sample Phase 2 would draw, so the
     sampling iterations could not reduce the sorting work they precede. *)
  let skip_direct = aggregated && m <= threshold in
  let window = ref None in
  let iters1_run = ref 0 in
  let hint_used = ref false in
  if not skip_direct then begin
    (match phase1_hint with
    | Some (lo, hi) when aggregated ->
        if apply_hint st ~lo ~hi then begin
          hint_used := true;
          diag_p1 := [ st.n_remaining ];
          Dpq_obs.Trace.kselect_round trace ~stage:"phase1-hint" ~iteration:0
            ~candidates:st.n_remaining ~messages:(msgs ())
        end
    | _ -> ());
    if not !hint_used then begin
      (* ---------------- Phase 1: log(q)+1 sampling iterations ---------- *)
      let q =
        if n < 2 then 1
        else max 1 (int_of_float (ceil (log (float_of_int (max 2 m)) /. log (float_of_int n))))
      in
      let iters1 = Bitsize.log2_ceil (max 1 q) + 1 in
      iters1_run := iters1;
      for i = 1 to iters1 do
        let pmin, pmax = phase1_iteration st in
        (match pmax with
        | B hi ->
            let lo = match pmin with B p -> p | _ -> 0 in
            window := Some (lo, hi)
        | _ -> ());
        diag_p1 := st.n_remaining :: !diag_p1;
        Dpq_obs.Trace.kselect_round trace ~stage:"phase1" ~iteration:i
          ~candidates:st.n_remaining ~messages:(msgs ())
      done
    end;
    (* ---------------- Phase 2: shrink to ~sqrt(n) candidates ----------- *)
    (* δ = Θ(√(log n) · n^{1/4}) (Lemma 4.6).  The constant is 1 rather than
       the proof's larger c: the exact-rank guards below make pruning safe
       unconditionally, so a tighter δ only trades a little failure
       probability for much faster shrinkage at moderate n. *)
    let delta =
      max 1
        (int_of_float
           (delta_factor *. sqrt (log (float_of_int (max 2 n))) *. (float_of_int (max 2 n) ** 0.25)))
    in
    let no_progress = ref 0 in
    let iter2 = ref 0 in
    while st.n_remaining > threshold && !no_progress < 3 && !iter2 < 30 do
      incr iter2;
      let before = st.n_remaining in
      bcast st (2 * int_bits (max n st.n_remaining));
      (* n' = Θ(√n) representatives; the constant 4 keeps n' comfortably above
         δ at practical n (the paper's asymptotics assume n' ≫ δ, which for
         √n vs n^{1/4}·√log n only holds at very large n). *)
      let prob = rep_factor *. sqrt (float_of_int n) /. float_of_int st.n_remaining in
      let prob = min 1.0 prob in
      let n', reps = draw_representatives st ~prob in
      if n' >= 2 then begin
        diag_reps := n' :: !diag_reps;
        let by_order, parts = sorting_stage ~reps ~n' in
        participations := !participations + parts;
        incr stages;
        let ideal = float_of_int st.k *. float_of_int n' /. float_of_int st.n_remaining in
        let l = max 1 (min n' (int_of_float (floor (ideal -. float_of_int delta)))) in
        let r = max 1 (min n' (int_of_float (ceil (ideal +. float_of_int delta)))) in
        let c_l = by_order.(l - 1) and c_r = by_order.(max l r - 1) in
        (* One aggregation for the exact ranks, then prune with the safety
           guards: below only if rank(c_l) < k, above only if rank(c_r) >= k. *)
        let rank_l, rank_r = exact_ranks st c_l c_r in
        let prune_below = rank_l < st.k in
        let prune_above = rank_r >= st.k in
        if prune_below || prune_above then
          prune_between st ~c_l ~c_r ~prune_below ~prune_above
      end;
      diag_p2 := st.n_remaining :: !diag_p2;
      Dpq_obs.Trace.kselect_round trace ~stage:"phase2" ~iteration:!iter2
        ~candidates:st.n_remaining ~messages:(msgs ());
      if st.n_remaining >= before then incr no_progress else no_progress := 0
    done
  end;
  (* ---------------- Phase 3: exact computation ------------------------- *)
  let phase3_n = st.n_remaining in
  Dpq_obs.Trace.kselect_round trace ~stage:"phase3" ~iteration:0 ~candidates:phase3_n
    ~messages:(msgs ());
  let element =
    if phase3_n = 1 then (
      (* route the single survivor to the anchor *)
      let survivor = ref None in
      Array.iter (fun cs -> match cs with [] -> () | e :: _ -> survivor := Some e) st.cands;
      let (_ : int), _ =
        up st
          ~local:(fun _ -> 0)
          ~combine:( + )
          ~size_bits:(fun _ -> Element.encoded_bits (Option.get !survivor))
      in
      Option.get !survivor)
    else begin
      let n', reps = draw_representatives st ~prob:1.0 in
      assert (n' = phase3_n);
      let by_order, parts = sorting_stage ~reps ~n' in
      participations := !participations + parts;
      incr stages;
      (* the k-th smallest survivor is the answer; ship it to the anchor *)
      let answer = by_order.(st.k - 1) in
      let (_ : int), _ =
        up st
          ~local:(fun _ -> 0)
          ~combine:( + )
          ~size_bits:(fun _ -> Element.encoded_bits answer)
      in
      answer
    end
  in
  let diagnostics =
    {
      initial_candidates = m;
      phase1_iterations = !iters1_run;
      phase1_skipped = skip_direct || !hint_used;
      phase1_candidates = List.rev !diag_p1;
      phase2_candidates = List.rev !diag_p2;
      phase2_rep_counts = List.rev !diag_reps;
      mean_trees_per_node =
        (if !stages = 0 then 0.0
         else float_of_int !participations /. float_of_int (n * !stages));
      phase3_candidates = phase3_n;
    }
  in
  { element; report = st.report; diagnostics; phase1_window = !window }
