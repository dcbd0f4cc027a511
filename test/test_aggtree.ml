open Dpq_aggtree
module Ldb = Dpq_overlay.Ldb

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let tree_of ~n ~seed = Aggtree.of_ldb (Ldb.build ~n ~seed)

(* ------------------------------------------------------------- Aggtree *)

let test_invariants_many_sizes () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          match Aggtree.check_invariants (tree_of ~n ~seed) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "n=%d seed=%d: %s" n seed e)
        [ 1; 2; 3 ])
    [ 1; 2; 3; 4; 7; 16; 50; 128 ]

let test_root_is_min_label () =
  let ldb = Ldb.build ~n:20 ~seed:8 in
  let tree = Aggtree.of_ldb ldb in
  checki "root = min vnode" (Ldb.min_vnode ldb) (Aggtree.root tree)

let test_parent_rules () =
  (* Appendix A: parent(m(v)) = l(v); parent(r(v)) = m(v);
     parent(l(v)) = pred(l(v)). *)
  let ldb = Ldb.build ~n:15 ~seed:2 in
  let tree = Aggtree.of_ldb ldb in
  let root = Aggtree.root tree in
  for id = 0 to 14 do
    let l = Ldb.vnode ~owner:id Ldb.Left in
    let m = Ldb.vnode ~owner:id Ldb.Middle in
    let r = Ldb.vnode ~owner:id Ldb.Right in
    if m <> root then checki "parent(m)=l" l (Option.get (Aggtree.parent tree m));
    if r <> root then checki "parent(r)=m" m (Option.get (Aggtree.parent tree r));
    if l <> root then checki "parent(l)=pred(l)" (Ldb.pred ldb l) (Option.get (Aggtree.parent tree l))
  done

let test_parents_have_smaller_labels () =
  let ldb = Ldb.build ~n:40 ~seed:3 in
  let tree = Aggtree.of_ldb ldb in
  Array.iter
    (fun v ->
      match Aggtree.parent tree v with
      | None -> ()
      | Some p -> checkb "label decreases" true (Ldb.label ldb p < Ldb.label ldb v))
    (Aggtree.vnodes tree)

let test_height_logarithmic () =
  (* Corollary A.4: height = O(log n) w.h.p.  Empirically height ≈ 5.6 log2 n;
     going 64 -> 4096 multiplies n by 64 but the height only by ~3. *)
  let h n =
    let heights = List.map (fun seed -> Aggtree.height (tree_of ~n ~seed)) [ 1; 2; 3; 4; 5 ] in
    Dpq_util.Stats.mean (List.map float_of_int heights)
  in
  let h64 = h 64 and h4096 = h 4096 in
  checkb "height grows like log n" true (h4096 < h64 *. 3.5);
  checkb "height nontrivial" true (h64 >= 2.0);
  List.iter
    (fun n ->
      let bound = (8.0 *. (log (float_of_int n) /. log 2.0)) +. 16.0 in
      checkb "height within c*log2 n" true (h n < bound))
    [ 64; 256; 1024; 4096 ]

let test_figure2_structure () =
  (* Paper Figure 2: an LDB of 2 real nodes (6 virtual nodes).  With labels
     m(u) < m(v) the cycle is l(u) < l(v) < m(u) < m(v) < r(u) < r(v) iff
     the middle labels are such that m(u)/2 < m(v)/2 < m(u), i.e. m(v) < 2 m(u).
     Pick a seed that gives this configuration and check the exact tree. *)
  let rec find_seed s =
    if s > 5000 then Alcotest.fail "no suitable seed found"
    else
      let ldb = Ldb.build ~n:2 ~seed:s in
      let mu = Ldb.label ldb (Ldb.vnode ~owner:0 Ldb.Middle) in
      let mv = Ldb.label ldb (Ldb.vnode ~owner:1 Ldb.Middle) in
      (* exact Figure-2 cycle: l(u) < l(v) < m(u) < m(v) < r(u) < r(v) *)
      if mu < mv && mv /. 2.0 < mu && mv < (mu +. 1.0) /. 2.0 then (s, ldb)
      else find_seed (s + 1)
  in
  let _, ldb = find_seed 1 in
  let tree = Aggtree.of_ldb ldb in
  let l k o = Ldb.vnode ~owner:o k in
  (* Cycle: l(u), l(v), m(u), m(v), r(u), r(v).  Tree (Fig 2, bold edges):
     root = l(u); children(l(u)) = { m(u), l(v) };
     children(l(v)) = { m(v) }; children(m(u)) = { r(u) };
     children(m(v)) = { r(v) }; leaves r(u), r(v). *)
  checki "root" (l Ldb.Left 0) (Aggtree.root tree);
  Alcotest.(check (list int))
    "children of l(u)"
    (List.sort compare [ l Ldb.Left 1; l Ldb.Middle 0 ])
    (List.sort compare (Aggtree.children tree (l Ldb.Left 0)));
  Alcotest.(check (list int))
    "children of l(v)" [ l Ldb.Middle 1 ]
    (Aggtree.children tree (l Ldb.Left 1));
  Alcotest.(check (list int))
    "children of m(u)" [ l Ldb.Right 0 ]
    (Aggtree.children tree (l Ldb.Middle 0));
  Alcotest.(check (list int))
    "children of m(v)" [ l Ldb.Right 1 ]
    (Aggtree.children tree (l Ldb.Middle 1));
  checkb "r(u) leaf" true (Aggtree.is_leaf tree (l Ldb.Right 0));
  checkb "r(v) leaf" true (Aggtree.is_leaf tree (l Ldb.Right 1))

let test_bottom_up_order_property () =
  let tree = tree_of ~n:30 ~seed:6 in
  let seen = Hashtbl.create 90 in
  List.iter
    (fun v ->
      List.iter
        (fun c -> checkb "children before parents" true (Hashtbl.mem seen c))
        (Aggtree.children tree v);
      Hashtbl.replace seen v ())
    (Aggtree.bottom_up_order tree);
  checki "all vnodes present" 90 (Hashtbl.length seen)

let test_single_node_tree () =
  let tree = tree_of ~n:1 ~seed:1 in
  (match Aggtree.check_invariants tree with Ok () -> () | Error e -> Alcotest.fail e);
  checki "height 2 (l -> m -> r chain)" 2 (Aggtree.height tree)

(* --------------------------------------------------------------- Phase *)

let test_up_counts_nodes () =
  (* The paper's example aggregation: every vnode contributes 1; the anchor
     learns the total number of virtual nodes, 3n. *)
  List.iter
    (fun n ->
      let tree = tree_of ~n ~seed:4 in
      let total, _memo, report =
        Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 32) ()
      in
      checki "3n" (3 * n) total;
      checkb "rounds bounded by height+1" true (report.Phase.rounds <= Aggtree.height tree + 1))
    [ 1; 2; 5; 16; 64 ]

let test_up_memo_parts () =
  let tree = tree_of ~n:10 ~seed:4 in
  let _total, memo, _ =
    Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 1) ()
  in
  Array.iter
    (fun v ->
      let parts = Phase.memo_parts memo v in
      checki "1 + #children parts" (1 + List.length (Aggtree.children tree v)) (List.length parts);
      checki "own part first" 1 (List.hd parts))
    (Aggtree.vnodes tree)

let test_up_respects_order () =
  (* Combine with a non-commutative operation: list concat.  The anchor's
     list must equal the deterministic traversal (own, then children by
     label). *)
  let tree = tree_of ~n:12 ~seed:9 in
  let all, _memo, _ =
    Phase.up ~tree
      ~local:(fun v -> [ v ])
      ~combine:(fun a b -> a @ b)
      ~size_bits:(fun l -> 16 * List.length l)
      ()
  in
  let rec expected v =
    v :: List.concat_map expected (Aggtree.children tree v)
  in
  Alcotest.(check (list int)) "pre-order traversal" (expected (Aggtree.root tree)) all

let test_down_decomposes_intervals () =
  (* Give every vnode demand 1 (memoized via up with (+)), then decompose
     the interval [1, 3n] down the tree: every vnode must retain a distinct
     singleton. *)
  let n = 20 in
  let tree = tree_of ~n ~seed:13 in
  let total, memo, _ =
    Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 8) ()
  in
  let iv = Dpq_util.Interval.make 1 total in
  let retained, _report =
    Phase.down ~tree ~memo ~root_payload:iv
      ~split:(fun ~parts iv -> Dpq_util.Interval.split_sizes iv parts)
      ~size_bits:(fun _ -> 64)
      ()
  in
  let positions = ref [] in
  Array.iter
    (function
      | None -> Alcotest.fail "vnode missed its share"
      | Some iv ->
          checki "cardinality 1" 1 (Dpq_util.Interval.cardinality iv);
          positions := Dpq_util.Interval.lo iv :: !positions)
    retained;
  let sorted = List.sort compare !positions in
  Alcotest.(check (list int)) "all positions exactly once" (List.init (3 * n) (fun i -> i + 1)) sorted

let test_down_split_arity_enforced () =
  let tree = tree_of ~n:4 ~seed:1 in
  let _, memo, _ =
    Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 1) ()
  in
  checkb "raises on bad arity" true
    (try
       ignore
         (Phase.down ~tree ~memo ~root_payload:0
            ~split:(fun ~parts:_ _ -> [])
            ~size_bits:(fun _ -> 1)
            ());
       false
     with Failure _ -> true)

let test_broadcast_reaches_all () =
  let n = 25 in
  let tree = tree_of ~n ~seed:17 in
  (* broadcast + down with copying split should mark everyone; use down to
     observe retained values. *)
  let _, memo, _ =
    Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 1) ()
  in
  let retained, report =
    Phase.down ~tree ~memo ~root_payload:"go"
      ~split:(fun ~parts payload -> List.map (fun _ -> payload) parts)
      ~size_bits:(fun s -> 8 * String.length s)
      ()
  in
  Array.iter
    (function Some "go" -> () | _ -> Alcotest.fail "missed broadcast")
    retained;
  checkb "took at least height rounds" true (report.Phase.rounds >= 1)

let test_broadcast_report () =
  let tree = tree_of ~n:16 ~seed:21 in
  let report = Phase.broadcast ~tree ~payload:42 ~size_bits:(fun _ -> 32) () in
  checkb "messages < 3n (virtual edges free)" true (report.Phase.messages < 48);
  checkb "some messages" true (report.Phase.messages > 0)

let test_report_addition () =
  let a = Phase.{ rounds = 3; messages = 10; max_congestion = 2; max_message_bits = 64; total_bits = 640; local_deliveries = 5; busiest_node_load = 9 } in
  let b = Phase.{ rounds = 4; messages = 1; max_congestion = 7; max_message_bits = 32; total_bits = 32; local_deliveries = 0; busiest_node_load = 4 } in
  let c = Phase.add_report a b in
  checki "rounds add" 7 c.Phase.rounds;
  checki "messages add" 11 c.Phase.messages;
  checki "congestion max" 7 c.Phase.max_congestion;
  checki "bits max" 64 c.Phase.max_message_bits

let test_up_rounds_scale_logarithmically () =
  let rounds n =
    Dpq_util.Stats.mean
      (List.map
         (fun seed ->
           let tree = tree_of ~n ~seed in
           let _, _, r =
             Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 32) ()
           in
           float_of_int r.Phase.rounds)
         [ 29; 30; 31; 32 ])
  in
  let r64 = rounds 64 and r4096 = rounds 4096 in
  checkb "log-like growth" true (r4096 < r64 *. 3.5)

(* ------------------------------------------------------ golden figures *)

module Fault_plan = Dpq_simrt.Fault_plan
module Sched = Dpq_simrt.Sched
module Pool = Dpq_simrt.Domain_pool

(* One up, one down and one broadcast pinned on a small grid: n in
   {8, 64, 256}, fault-free, under a drop/dup/crash plan, under three
   adversarial schedulers and at two domains.  The up combines by list
   append of vnode ids, so its value pins the combine order; the down splits
   an interval by those lists' lengths.  Each row holds a digest of the
   anchor's value, of every vnode's memorized parts and of every retained
   piece, and all seven report fields.  The rows were recorded with the
   phases that carried the values on the wire, before payloads moved into
   per-phase slots.  On a mismatch the test prints the whole table as it now
   stands, in the syntax below. *)
let golden_conditions =
  let sched p () = (None, Some (Sched.create ~seed:5 p), None) in
  [
    ("fifo", fun () -> (None, None, None));
    ( "faults",
      fun () ->
        (Some (Fault_plan.of_string ~seed:5 "drop=0.1,dup=0.05,crash=3@2-40"), None, None) );
    ("shuffle", sched (Sched.Shuffle { burst = 3; starvation = 0.1 }));
    ("crossing", sched Sched.Crossing_pairs);
    ("bias", sched (Sched.Channel_bias { src = Some 1; dst = None; factor = 3 }));
    ("par2", fun () -> (None, None, Some { Pool.pool = Pool.get ~domains:2; shards = 2 }));
  ]

let digest x = String.sub (Digest.to_hex (Digest.string (Marshal.to_string x []))) 0 12

let report_fields (r : Phase.report) =
  Printf.sprintf "r=%d m=%d c=%d mb=%d b=%d l=%d bn=%d" r.Phase.rounds r.Phase.messages
    r.Phase.max_congestion r.Phase.max_message_bits r.Phase.total_bits
    r.Phase.local_deliveries r.Phase.busiest_node_load

let golden_rows () =
  List.concat_map
    (fun n ->
      let tree = tree_of ~n ~seed:3 in
      List.concat_map
        (fun (name, mk) ->
          let faults, sched, par = mk () in
          let value, memo, up =
            Phase.up ?faults ?sched ?par ~tree
              ~local:(fun v -> [ v ])
              ~combine:(fun a b -> a @ b)
              ~size_bits:(fun l -> 16 * List.length l)
              ()
          in
          let parts = Array.map (Phase.memo_parts memo) (Aggtree.vnodes tree) in
          let retained, down =
            Phase.down ?faults ?sched ?par ~tree ~memo
              ~root_payload:(Dpq_util.Interval.make 1 (List.length value))
              ~split:(fun ~parts iv ->
                Dpq_util.Interval.split_sizes iv (List.map List.length parts))
              ~size_bits:(fun iv -> 8 + Dpq_util.Interval.cardinality iv)
              ()
          in
          let pieces =
            Array.map
              (Option.map (fun iv -> (Dpq_util.Interval.lo iv, Dpq_util.Interval.hi iv)))
              retained
          in
          let bcast = Phase.broadcast ?faults ?sched ?par ~tree ~payload:n ~size_bits:(fun _ -> 32) () in
          [
            Printf.sprintf "n=%d %s up: v=%s memo=%s %s" n name (digest value) (digest parts)
              (report_fields up);
            Printf.sprintf "n=%d %s down: pieces=%s %s" n name (digest pieces) (report_fields down);
            Printf.sprintf "n=%d %s broadcast: %s" n name (report_fields bcast);
          ])
        golden_conditions)
    [ 8; 64; 256 ]

let golden_expected =
  [
    "n=8 fifo up: v=fde85e6e8957 memo=b2169c26cf6b r=6 m=7 c=1 mb=346 b=1318 l=16 bn=2";
    "n=8 fifo down: pieces=38c4b32a8b66 r=6 m=7 c=1 mb=39 b=204 l=16 bn=1";
    "n=8 fifo broadcast: r=6 m=7 c=1 mb=42 b=294 l=16 bn=1";
    "n=8 faults up: v=fde85e6e8957 memo=b2169c26cf6b r=66 m=7 c=1 mb=379 b=1549 l=16 bn=2";
    "n=8 faults down: pieces=38c4b32a8b66 r=10 m=7 c=1 mb=72 b=435 l=16 bn=1";
    "n=8 faults broadcast: r=18 m=7 c=1 mb=75 b=525 l=16 bn=1";
    "n=8 shuffle up: v=fde85e6e8957 memo=b2169c26cf6b r=7 m=7 c=1 mb=346 b=1318 l=16 bn=2";
    "n=8 shuffle down: pieces=38c4b32a8b66 r=8 m=7 c=1 mb=39 b=204 l=16 bn=1";
    "n=8 shuffle broadcast: r=7 m=7 c=1 mb=42 b=294 l=16 bn=1";
    "n=8 crossing up: v=fde85e6e8957 memo=b2169c26cf6b r=6 m=7 c=1 mb=346 b=1318 l=16 bn=2";
    "n=8 crossing down: pieces=38c4b32a8b66 r=6 m=7 c=1 mb=39 b=204 l=16 bn=1";
    "n=8 crossing broadcast: r=6 m=7 c=1 mb=42 b=294 l=16 bn=1";
    "n=8 bias up: v=fde85e6e8957 memo=b2169c26cf6b r=9 m=7 c=1 mb=346 b=1318 l=16 bn=2";
    "n=8 bias down: pieces=38c4b32a8b66 r=9 m=7 c=1 mb=39 b=204 l=16 bn=1";
    "n=8 bias broadcast: r=9 m=7 c=1 mb=42 b=294 l=16 bn=1";
    "n=8 par2 up: v=fde85e6e8957 memo=b2169c26cf6b r=6 m=7 c=1 mb=346 b=1318 l=16 bn=2";
    "n=8 par2 down: pieces=38c4b32a8b66 r=6 m=7 c=1 mb=39 b=204 l=16 bn=1";
    "n=8 par2 broadcast: r=6 m=7 c=1 mb=42 b=294 l=16 bn=1";
    "n=64 fifo up: v=252f286090f2 memo=62240b2b12ef r=22 m=63 c=1 mb=3040 b=31680 l=128 bn=2";
    "n=64 fifo down: pieces=67b58bf03e96 r=22 m=63 c=1 mb=213 b=3429 l=128 bn=1";
    "n=64 fifo broadcast: r=22 m=63 c=1 mb=48 b=3024 l=128 bn=1";
    "n=64 faults up: v=252f286090f2 memo=62240b2b12ef r=62 m=63 c=1 mb=3073 b=33759 l=128 bn=2";
    "n=64 faults down: pieces=67b58bf03e96 r=34 m=63 c=1 mb=246 b=5508 l=128 bn=1";
    "n=64 faults broadcast: r=50 m=63 c=1 mb=81 b=5103 l=128 bn=1";
    "n=64 shuffle up: v=252f286090f2 memo=62240b2b12ef r=23 m=63 c=1 mb=3040 b=31680 l=128 bn=2";
    "n=64 shuffle down: pieces=67b58bf03e96 r=23 m=63 c=1 mb=213 b=3429 l=128 bn=1";
    "n=64 shuffle broadcast: r=24 m=63 c=1 mb=48 b=3024 l=128 bn=1";
    "n=64 crossing up: v=252f286090f2 memo=62240b2b12ef r=22 m=63 c=1 mb=3040 b=31680 l=128 bn=2";
    "n=64 crossing down: pieces=67b58bf03e96 r=22 m=63 c=1 mb=213 b=3429 l=128 bn=1";
    "n=64 crossing broadcast: r=22 m=63 c=1 mb=48 b=3024 l=128 bn=1";
    "n=64 bias up: v=252f286090f2 memo=62240b2b12ef r=25 m=63 c=1 mb=3040 b=31680 l=128 bn=2";
    "n=64 bias down: pieces=67b58bf03e96 r=25 m=63 c=1 mb=213 b=3429 l=128 bn=1";
    "n=64 bias broadcast: r=25 m=63 c=1 mb=48 b=3024 l=128 bn=1";
    "n=64 par2 up: v=252f286090f2 memo=62240b2b12ef r=22 m=63 c=1 mb=3040 b=31680 l=128 bn=2";
    "n=64 par2 down: pieces=67b58bf03e96 r=22 m=63 c=1 mb=213 b=3429 l=128 bn=1";
    "n=64 par2 broadcast: r=22 m=63 c=1 mb=48 b=3024 l=128 bn=1";
    "n=256 fifo up: v=2b1709d8fcf9 memo=3b3a73181eb6 r=27 m=255 c=2 mb=12260 b=173148 l=512 bn=2";
    "n=256 fifo down: pieces=26ca25d68b85 r=27 m=255 c=1 mb=793 b=17643 l=512 bn=1";
    "n=256 fifo broadcast: r=27 m=255 c=1 mb=52 b=13260 l=512 bn=1";
    "n=256 faults up: v=2b1709d8fcf9 memo=3b3a73181eb6 r=144 m=255 c=2 mb=12293 b=181563 l=512 bn=2";
    "n=256 faults down: pieces=26ca25d68b85 r=74 m=255 c=1 mb=826 b=26058 l=512 bn=1";
    "n=256 faults broadcast: r=54 m=255 c=1 mb=85 b=21675 l=512 bn=1";
    "n=256 shuffle up: v=2b1709d8fcf9 memo=3b3a73181eb6 r=28 m=255 c=2 mb=12260 b=173148 l=512 bn=2";
    "n=256 shuffle down: pieces=26ca25d68b85 r=29 m=255 c=1 mb=793 b=17643 l=512 bn=1";
    "n=256 shuffle broadcast: r=31 m=255 c=1 mb=52 b=13260 l=512 bn=1";
    "n=256 crossing up: v=2b1709d8fcf9 memo=3b3a73181eb6 r=27 m=255 c=2 mb=12260 b=173148 l=512 bn=2";
    "n=256 crossing down: pieces=26ca25d68b85 r=27 m=255 c=1 mb=793 b=17643 l=512 bn=1";
    "n=256 crossing broadcast: r=27 m=255 c=1 mb=52 b=13260 l=512 bn=1";
    "n=256 bias up: v=2b1709d8fcf9 memo=3b3a73181eb6 r=27 m=255 c=2 mb=12260 b=173148 l=512 bn=2";
    "n=256 bias down: pieces=26ca25d68b85 r=27 m=255 c=1 mb=793 b=17643 l=512 bn=1";
    "n=256 bias broadcast: r=27 m=255 c=1 mb=52 b=13260 l=512 bn=1";
    "n=256 par2 up: v=2b1709d8fcf9 memo=3b3a73181eb6 r=27 m=255 c=2 mb=12260 b=173148 l=512 bn=2";
    "n=256 par2 down: pieces=26ca25d68b85 r=27 m=255 c=1 mb=793 b=17643 l=512 bn=1";
    "n=256 par2 broadcast: r=27 m=255 c=1 mb=52 b=13260 l=512 bn=1";
  ]

let test_golden_figures () =
  let rows = golden_rows () in
  if rows <> golden_expected then List.iter (fun r -> Printf.eprintf "    %S;\n" r) rows;
  Alcotest.(check (list string)) "every figure as recorded" golden_expected rows

(* Allocation regression: minor words per vnode of one up and one broadcast
   with int payloads.  The counts are deterministic for a fixed tree.  The
   bounds sit between what the vnode-id wire costs (under 3 words per vnode
   for either) and what a record per message plus assoc-list bookkeeping
   cost (over 32 for up, over 11 for broadcast). *)
let test_words_per_vnode () =
  let per_vnode n =
    let tree = tree_of ~n ~seed:2 in
    let nv = float_of_int (3 * n) in
    let before = Gc.minor_words () in
    let total, _memo, _ = Phase.up ~tree ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 32) () in
    let mid = Gc.minor_words () in
    ignore (Phase.broadcast ~tree ~payload:total ~size_bits:(fun _ -> 32) ());
    let after = Gc.minor_words () in
    checki "3n" (3 * n) total;
    (n, (mid -. before) /. nv, (after -. mid) /. nv)
  in
  let ws = List.map per_vnode [ 256; 1024 ] in
  checkb
    (String.concat ", "
       (List.map (fun (n, u, b) -> Printf.sprintf "n=%d: up %.1f, broadcast %.1f" n u b) ws)
    ^ " minor words per vnode, up <= 16 and broadcast <= 9")
    true
    (List.for_all (fun (_, u, b) -> u <= 16.0 && b <= 9.0) ws)

let () =
  Alcotest.run "dpq_aggtree"
    [
      ( "tree",
        [
          Alcotest.test_case "invariants" `Quick test_invariants_many_sizes;
          Alcotest.test_case "root is min label" `Quick test_root_is_min_label;
          Alcotest.test_case "parent rules" `Quick test_parent_rules;
          Alcotest.test_case "labels decrease upward" `Quick test_parents_have_smaller_labels;
          Alcotest.test_case "height logarithmic" `Quick test_height_logarithmic;
          Alcotest.test_case "figure 2 structure" `Quick test_figure2_structure;
          Alcotest.test_case "bottom-up order" `Quick test_bottom_up_order_property;
          Alcotest.test_case "single node" `Quick test_single_node_tree;
        ] );
      ( "phase",
        [
          Alcotest.test_case "up counts nodes" `Quick test_up_counts_nodes;
          Alcotest.test_case "up memo parts" `Quick test_up_memo_parts;
          Alcotest.test_case "up respects order" `Quick test_up_respects_order;
          Alcotest.test_case "down decomposes intervals" `Quick test_down_decomposes_intervals;
          Alcotest.test_case "down arity enforced" `Quick test_down_split_arity_enforced;
          Alcotest.test_case "broadcast reaches all" `Quick test_broadcast_reaches_all;
          Alcotest.test_case "broadcast report" `Quick test_broadcast_report;
          Alcotest.test_case "report addition" `Quick test_report_addition;
          Alcotest.test_case "up rounds log" `Quick test_up_rounds_scale_logarithmically;
        ] );
      ( "figures",
        [
          Alcotest.test_case "golden figures" `Quick test_golden_figures;
          Alcotest.test_case "minor words per vnode" `Quick test_words_per_vnode;
        ] );
    ]
