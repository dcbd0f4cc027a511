module K = Dpq_kselect.Kselect
module E = Dpq_util.Element
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let tree_of ~n ~seed = Aggtree.of_ldb (Ldb.build ~n ~seed)

let uniform_elements ~rng ~n ~per_node ~prio_range =
  Array.init n (fun v ->
      List.init per_node (fun s ->
          E.make ~prio:(1 + Dpq_util.Rng.int rng prio_range) ~origin:v ~seq:s ()))

let run_and_check ?(seed = 3) ~tree ~elements k =
  let all = Array.to_list elements |> List.concat in
  let r = K.select ~seed ~tree ~elements ~k () in
  let expect = K.select_seq all ~k in
  checkb
    (Printf.sprintf "k=%d selects the right element" k)
    true
    (E.equal r.K.element expect);
  r

(* ----------------------------------------------------------- select_seq *)

let test_select_seq () =
  let mk p = E.make ~prio:p ~origin:0 ~seq:p () in
  let es = [ mk 5; mk 2; mk 9; mk 1 ] in
  checkb "k=1" true (E.equal (K.select_seq es ~k:1) (mk 1));
  checkb "k=4" true (E.equal (K.select_seq es ~k:4) (mk 9));
  checkb "raises k=0" true
    (try
       ignore (K.select_seq es ~k:0);
       false
     with Invalid_argument _ -> true);
  checkb "raises k=5" true
    (try
       ignore (K.select_seq es ~k:5);
       false
     with Invalid_argument _ -> true)

let test_kth_statistics () =
  let mk p = E.make ~prio:p ~origin:0 ~seq:p () in
  let es = [ mk 5; mk 2; mk 9; mk 1 ] in
  let e, below, above = K.kth_statistics es ~k:2 in
  checkb "element" true (E.equal e (mk 2));
  checki "below" 1 below;
  checki "above" 2 above

(* ------------------------------------------------------------- select  *)

let test_small_network_all_k () =
  let rng = Dpq_util.Rng.create ~seed:11 in
  let n = 6 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:5 ~prio_range:100 in
  let m = 30 in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) (List.init m (fun i -> i + 1))

let test_medium_network_selected_k () =
  let rng = Dpq_util.Rng.create ~seed:13 in
  let n = 48 in
  let tree = tree_of ~n ~seed:5 in
  let elements = uniform_elements ~rng ~n ~per_node:20 ~prio_range:10_000 in
  let m = 48 * 20 in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 2; m / 4; m / 2; m - 1; m ]

let test_duplicate_priorities () =
  (* Many ties: the tiebreaker (origin, seq) must make the answer exact. *)
  let n = 16 in
  let tree = tree_of ~n ~seed:3 in
  let elements =
    Array.init n (fun v -> List.init 10 (fun s -> E.make ~prio:((s mod 3) + 1) ~origin:v ~seq:s ()))
  in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 53; 80; 107; 160 ]

let test_all_same_priority () =
  let n = 10 in
  let tree = tree_of ~n ~seed:9 in
  let elements = Array.init n (fun v -> List.init 8 (fun s -> E.make ~prio:7 ~origin:v ~seq:s ())) in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 40; 80 ]

let test_skewed_distribution () =
  (* All elements on a handful of nodes: stresses the short-node sentinels
     of Phase 1. *)
  let n = 24 in
  let tree = tree_of ~n ~seed:4 in
  let rng = Dpq_util.Rng.create ~seed:21 in
  let elements =
    Array.init n (fun v ->
        if v < 3 then List.init 60 (fun s -> E.make ~prio:(1 + Dpq_util.Rng.int rng 1000) ~origin:v ~seq:s ())
        else [])
  in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 90; 180 ]

let test_single_node () =
  let tree = tree_of ~n:1 ~seed:6 in
  let elements = [| List.init 9 (fun s -> E.make ~prio:(9 - s) ~origin:0 ~seq:s ()) |] in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 5; 9 ]

let test_one_element () =
  let tree = tree_of ~n:4 ~seed:7 in
  let elements = [| []; [ E.make ~prio:42 ~origin:1 ~seq:0 () ]; []; [] |] in
  ignore (run_and_check ~tree ~elements 1)

let test_invalid_args () =
  let tree = tree_of ~n:4 ~seed:8 in
  let elements = Array.make 4 [ E.make ~prio:1 ~origin:0 ~seq:0 () ] in
  checkb "k=0 rejected" true
    (try
       ignore (K.select ~tree ~elements ~k:0 ());
       false
     with Invalid_argument _ -> true);
  checkb "k too big rejected" true
    (try
       ignore (K.select ~tree ~elements ~k:5 ());
       false
     with Invalid_argument _ -> true);
  checkb "wrong array length rejected" true
    (try
       ignore (K.select ~tree ~elements:(Array.make 3 []) ~k:1 ());
       false
     with Invalid_argument _ -> true)

let test_deterministic_given_seed () =
  let rng = Dpq_util.Rng.create ~seed:31 in
  let n = 12 in
  let tree = tree_of ~n ~seed:3 in
  let elements = uniform_elements ~rng ~n ~per_node:10 ~prio_range:500 in
  let r1 = K.select ~seed:99 ~tree ~elements ~k:60 () in
  let r2 = K.select ~seed:99 ~tree ~elements ~k:60 () in
  checkb "same element" true (E.equal r1.K.element r2.K.element);
  checki "same rounds" r1.K.report.Phase.rounds r2.K.report.Phase.rounds

(* -------------------------------------------------- theorem-shaped props *)

let test_phase1_reduces_candidates () =
  let rng = Dpq_util.Rng.create ~seed:17 in
  let n = 128 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:32 ~prio_range:1_000_000 in
  let r = run_and_check ~tree ~elements 2048 in
  let after_p1 = List.nth r.K.diagnostics.K.phase1_candidates
      (List.length r.K.diagnostics.K.phase1_candidates - 1) in
  checkb "phase 1 pruned" true (after_p1 < r.K.diagnostics.K.initial_candidates);
  (* Lemma 4.4's bound with generous constants: O(n^{3/2} log n). *)
  let bound = 4.0 *. (float_of_int n ** 1.5) *. log (float_of_int n) in
  checkb "within O(n^1.5 log n)" true (float_of_int after_p1 < bound)

let test_phase2_reaches_threshold () =
  let rng = Dpq_util.Rng.create ~seed:19 in
  let n = 64 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:40 ~prio_range:1_000_000 in
  let r = run_and_check ~tree ~elements 1280 in
  (* Lemma 4.7 (with our n' = 4√n constant): the exact phase runs on at
     most ~4√n + a few candidates. *)
  checkb "phase 3 input small" true
    (float_of_int r.K.diagnostics.K.phase3_candidates
    <= (8.0 *. sqrt (float_of_int n)) +. 32.0)

let test_trees_per_node_bounded () =
  (* Lemma 4.5: expected participation in copy trees is Θ(1); with the
     implementation's n' = 4√n constant that is ≈ 2·16 = O(1) in n. *)
  let load n =
    let rng = Dpq_util.Rng.create ~seed:23 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:16 ~prio_range:100_000 in
    let r = run_and_check ~tree ~elements (8 * n) in
    r.K.diagnostics.K.mean_trees_per_node
  in
  let l64 = load 64 and l256 = load 256 in
  checkb "stays bounded as n quadruples" true (l256 < 4.0 *. l64);
  checkb "nontrivial" true (l64 > 0.0)

(* Statistical check for DESIGN.md rows F2/F3 (Lemmas 4.5, 4.7), pooled
   over 64 seeded runs rather than a single instance: Phase-2 candidate
   counts must drop geometrically from one iteration to the next, and the
   copy-tree participation per node must sit in a constant band.  Both are
   w.h.p. statements, so individual runs may be lucky or unlucky; pooling
   64 runs (~120 phase-2 iterations at this size) makes the geometric mean
   of the shrink ratios a stable statistic, and the tolerances stay loose
   (observed geomean ≈ 0.43, asserted ≤ 0.7). *)
let test_phase2_geometric_drop_64_seeds () =
  let n = 16 and per_node = 64 in
  let ratios = ref [] in
  let runs_with_p2 = ref 0 in
  let small_final = ref 0 in
  let trees = ref [] in
  for seed = 1 to 64 do
    let rng = Dpq_util.Rng.create ~seed:(seed * 101) in
    let tree = tree_of ~n ~seed in
    let elements = uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000 in
    let k = 1 + Dpq_util.Rng.int rng (n * per_node) in
    let r = run_and_check ~seed ~tree ~elements k in
    let d = r.K.diagnostics in
    trees := d.K.mean_trees_per_node :: !trees;
    (* N entering Phase 2 is the last Phase-1 count. *)
    let start =
      match List.rev d.K.phase1_candidates with
      | last :: _ -> last
      | [] -> d.K.initial_candidates
    in
    let p2 = d.K.phase2_candidates in
    if p2 <> [] then begin
      incr runs_with_p2;
      let final = List.nth p2 (List.length p2 - 1) in
      if float_of_int final <= 8.0 *. sqrt (float_of_int n) then incr small_final;
      ignore
        (List.fold_left
           (fun prev x ->
             ratios := (float_of_int x /. float_of_int (max 1 prev)) :: !ratios;
             x)
           start p2)
    end
  done;
  (* F3: Phase 2 actually runs and ends ≤ const·√n in (almost) every run. *)
  checkb "phase 2 ran in >= 58/64 runs" true (!runs_with_p2 >= 58);
  checkb "final N <= 8√n in >= 90% of phase-2 runs" true
    (float_of_int !small_final >= 0.9 *. float_of_int !runs_with_p2);
  (* F3: pooled geometric mean of per-iteration shrink ratios. *)
  let rs = !ratios in
  checkb "enough pooled iterations" true (List.length rs >= 64);
  let geomean =
    exp (List.fold_left (fun a r -> a +. log (max r 1e-9)) 0.0 rs /. float_of_int (List.length rs))
  in
  checkb
    (Printf.sprintf "geometric drop: pooled shrink geomean %.3f <= 0.7" geomean)
    true (geomean <= 0.7);
  (* F2: copy-tree participation averaged over the 64 runs is a small
     constant (Lemma 4.5; with n' = 4√n the expectation is ~2·(n'/√n)² = 32,
     observed ≈ 8). *)
  let mean_trees = List.fold_left ( +. ) 0.0 !trees /. 64.0 in
  checkb
    (Printf.sprintf "mean copy trees/node %.2f in (0, 32]" mean_trees)
    true
    (mean_trees > 0.0 && mean_trees <= 32.0)

let test_rounds_logarithmic () =
  let rounds n =
    let rng = Dpq_util.Rng.create ~seed:29 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:1_000_000 in
    let r = run_and_check ~tree ~elements (4 * n) in
    float_of_int r.K.report.Phase.rounds
  in
  let r64 = rounds 64 and r1024 = rounds 1024 in
  (* 16x more nodes should cost well under 16x the rounds. *)
  checkb "O(log n) shape" true (r1024 < 6.0 *. r64)

let test_message_bits_logarithmic () =
  (* The O(log n)-bit wire-word theorem is a statement about the paper's
     protocol, whose message format the [`Pairwise] reference implements;
     the aggregated format deliberately concatenates many O(log n)-bit
     items into one vector message, so its per-message maximum is checked
     separately below. *)
  let bits ?impl n =
    let rng = Dpq_util.Rng.create ~seed:37 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:(n * 80) in
    let all = Array.to_list elements |> List.concat in
    let r = K.select ?impl ~seed:3 ~tree ~elements ~k:(2 * n) () in
    checkb "selects the right element" true (E.equal r.K.element (K.select_seq all ~k:(2 * n)));
    float_of_int r.K.report.Phase.max_message_bits
  in
  let b64 = bits ~impl:`Pairwise 64 and b1024 = bits ~impl:`Pairwise 1024 in
  checkb "bits grow additively, not multiplicatively" true (b1024 < b64 +. 80.0);
  (* Aggregated vectors: the biggest combined message may pick up more
     items on hot destinations as n grows, but it must stay well below
     linear growth (observed ~4x over a 16x node increase). *)
  let a64 = bits 64 and a1024 = bits 1024 in
  checkb "aggregated vector growth stays sublinear" true (a1024 < 8.0 *. a64)

(* qcheck: KSelect = sort-then-index on random inputs. *)
let prop_kselect_matches_oracle =
  let gen =
    QCheck.Gen.(
      triple (2 -- 12) (1 -- 8) (0 -- 1000) >>= fun (n, per_node, prio_seed) ->
      map (fun k -> (n, per_node, prio_seed, k)) (1 -- (n * per_node)))
  in
  QCheck.Test.make ~name:"kselect matches sequential oracle" ~count:40 (QCheck.make gen)
    (fun (n, per_node, prio_seed, k) ->
      let rng = Dpq_util.Rng.create ~seed:prio_seed in
      let tree = tree_of ~n ~seed:2 in
      let elements = uniform_elements ~rng ~n ~per_node ~prio_range:50 in
      let all = Array.to_list elements |> List.concat in
      let r = K.select ~seed:(prio_seed + 1) ~tree ~elements ~k () in
      E.equal r.K.element (K.select_seq all ~k))

(* -------------------------------------------------- differential layer *)

(* One differential data point: the optimized (aggregated) implementation
   against BOTH the sequential sorted-oracle and the pre-optimization
   pairwise protocol, on the same instance and seed.  Asserts the three
   agree on the selected element and that the optimization strictly drops
   engine messages. *)
let diff_point ~n ~per_node ~prio_range ~seed k =
  let rng = Dpq_util.Rng.create ~seed in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node ~prio_range in
  let all = Array.to_list elements |> List.concat in
  let oracle = K.select_seq all ~k in
  let opt = K.select ~seed ~tree ~elements ~k () in
  let refr = K.select ~seed ~impl:`Pairwise ~tree ~elements ~k () in
  checkb
    (Printf.sprintf "n=%d m=%d k=%d: optimized matches oracle" n (List.length all) k)
    true
    (E.equal opt.K.element oracle);
  checkb
    (Printf.sprintf "n=%d m=%d k=%d: pairwise matches oracle" n (List.length all) k)
    true
    (E.equal refr.K.element oracle);
  (opt.K.report.Phase.messages, refr.K.report.Phase.messages)

(* qcheck sweep over random (n, per_node, k, seed) up to n=64, plus the
   deterministic large-n grid below; together they cover n up to 512. *)
let prop_differential_matches_and_drops =
  let gen =
    QCheck.Gen.(
      triple (2 -- 64) (1 -- 8) (0 -- 1000) >>= fun (n, per_node, seed) ->
      map (fun k -> (n, per_node, seed, k)) (1 -- (n * per_node)))
  in
  QCheck.Test.make ~name:"aggregated = pairwise = oracle, fewer messages" ~count:20
    (QCheck.make gen)
    (fun (n, per_node, seed, k) ->
      let opt_msgs, ref_msgs =
        diff_point ~n ~per_node ~prio_range:200 ~seed:(seed + 1) k
      in
      (* Tiny instances skip straight to one exact sorting stage, where the
         two formats can tie; from a handful of nodes up the aggregated
         format must win outright. *)
      if n >= 8 then opt_msgs < ref_msgs else opt_msgs <= ref_msgs)

let test_differential_large_grid () =
  List.iter
    (fun (n, per_node) ->
      let m = n * per_node in
      List.iter
        (fun k ->
          let opt, refr = diff_point ~n ~per_node ~prio_range:100_000 ~seed:(n + k) k in
          checkb (Printf.sprintf "n=%d k=%d: messages strictly drop (%d < %d)" n k opt refr)
            true (opt < refr))
        [ 1; m / 2; m ])
    [ (128, 4); (512, 4) ]

let test_planted_misaggregation_caught () =
  (* The planted wrong-aggregation bug (vote smaller/larger swapped inside
     combined vectors) must surface in the differential as a wrong element
     or a hard protocol failure — silent agreement would mean the test
     layer cannot see aggregation mistakes. *)
  let n = 32 and per_node = 16 in
  let rng = Dpq_util.Rng.create ~seed:97 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000 in
  let all = Array.to_list elements |> List.concat in
  let k = (n * per_node) / 2 in
  let oracle = K.select_seq all ~k in
  let caught =
    Fun.protect
      ~finally:(fun () -> K.unsafe_misaggregate_votes := false)
      (fun () ->
        K.unsafe_misaggregate_votes := true;
        try
          let r = K.select ~seed:97 ~tree ~elements ~k () in
          not (E.equal r.K.element oracle)
        with Failure _ -> true)
  in
  checkb "differential catches the planted bug" true caught;
  (* And the same instance passes clean with the flag off. *)
  let r = K.select ~seed:97 ~tree ~elements ~k () in
  checkb "clean run agrees with oracle" true (E.equal r.K.element oracle)

let test_phase1_hint_reuse () =
  let n = 32 and per_node = 32 in
  let rng = Dpq_util.Rng.create ~seed:53 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000 in
  let k = (n * per_node) / 3 in
  let full = K.select ~seed:7 ~tree ~elements ~k () in
  checkb "full run exposes a window" true (full.K.phase1_window <> None);
  checkb "full run did not skip phase 1" false full.K.diagnostics.K.phase1_skipped;
  let lo, hi = Option.get full.K.phase1_window in
  let hinted = K.select ~seed:7 ~phase1_hint:(lo, hi) ~tree ~elements ~k () in
  checkb "hinted run selects the same element" true
    (E.equal hinted.K.element full.K.element);
  checkb "hinted run skipped phase 1" true hinted.K.diagnostics.K.phase1_skipped;
  checkb "hinted run is cheaper" true
    (hinted.K.report.Phase.messages < full.K.report.Phase.messages);
  (* A window that cannot cover the k-th element is rejected, falls back to
     the full Phase 1, and still selects correctly. *)
  let stale = K.select ~seed:7 ~phase1_hint:(0, 0) ~tree ~elements ~k () in
  checkb "stale hint rejected" false stale.K.diagnostics.K.phase1_skipped;
  checkb "stale hint still correct" true (E.equal stale.K.element full.K.element)

(* T4-style constancy: total rounds divided by log2(n) stays in a constant
   band as n quadruples twice — the Theorem 4.2 round bound, checked as a
   ratio rather than a single-point inequality. *)
let test_rounds_per_log_constant () =
  let per_log n =
    let rng = Dpq_util.Rng.create ~seed:29 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:1_000_000 in
    let r = run_and_check ~tree ~elements (4 * n) in
    float_of_int r.K.report.Phase.rounds /. (log (float_of_int n) /. log 2.0)
  in
  let samples = List.map per_log [ 64; 256; 1024 ] in
  let mn = List.fold_left min infinity samples and mx = List.fold_left max 0.0 samples in
  checkb
    (Printf.sprintf "rounds/log2(n) band [%.1f, %.1f] within 2.5x" mn mx)
    true
    (mx <= 2.5 *. mn)

(* ------------------------------------------------------ golden figures *)

module Fault_plan = Dpq_simrt.Fault_plan
module Sched = Dpq_simrt.Sched

(* Every simulated figure of KSelect pinned on a small grid: n in
   {8, 32, 128} with one seeded element set each, k in {m/4, m/2, m},
   fault-free, under two crash plans and under three adversarial
   schedulers.  The rows were recorded with the hashtable-based sorting
   stage that the flat-array one replaced, so any change to its wire
   order, bits or rounds moves one of them, including the path where a
   crashed node keeps its outbox until it comes back up.  On a mismatch the
   test prints the whole table as it now stands, in the syntax below. *)
let golden_conditions ~n =
  let sched p () = (None, Some (Sched.create ~seed:5 p)) in
  [
    ("fifo", fun () -> (None, None));
    ( "faults",
      fun () ->
        let spec = "drop=0.1,dup=0.05,crash=3@5-60,crash=7@30-200" in
        (Some (Fault_plan.of_string ~seed:5 spec), None) );
    (* The crash windows above end before the first sorting stage starts.
       These open one and two ticks into it (it starts at tick 80, 154 and
       275 at n = 8, 32 and 128): the stage fills outboxes every other
       round, so some of nodes 1-4 go down with items still in their
       outboxes and must flush them once they are back up. *)
    ( "crash-sort",
      fun () ->
        let start = List.assoc n [ (8, 80); (32, 154); (128, 275) ] in
        let window node =
          Printf.sprintf "crash=%d@%d-%d" node (start + 2 - (node mod 2)) (start + 16)
        in
        let spec = String.concat "," (List.map window [ 1; 2; 3; 4 ]) in
        (Some (Fault_plan.of_string ~seed:5 spec), None) );
    ("shuffle", sched (Sched.Shuffle { burst = 3; starvation = 0.1 }));
    ("crossing", sched Sched.Crossing_pairs);
    ("bias", sched (Sched.Channel_bias { src = Some 1; dst = None; factor = 3 }));
  ]

let golden_rows () =
  List.concat_map
    (fun n ->
      let rng = Dpq_util.Rng.create ~seed:(1000 + n) in
      let tree = tree_of ~n ~seed:2 in
      let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:100_000 in
      let all = Array.to_list elements |> List.concat in
      let m = List.length all in
      List.concat_map
        (fun k ->
          List.map
            (fun (name, mk) ->
              let faults, sched = mk () in
              let r = K.select ~seed:3 ?faults ?sched ~tree ~elements ~k () in
              checkb
                (Printf.sprintf "n=%d k=%d %s selects the right element" n k name)
                true
                (E.equal r.K.element (K.select_seq all ~k));
              let e = r.K.element and p = r.K.report in
              Printf.sprintf "n=%d k=%d %s: %d.%d.%d r=%d m=%d c=%d mb=%d b=%d l=%d bn=%d t=%.17g"
                n k name (E.prio e) e.E.origin e.E.seq p.Phase.rounds p.Phase.messages
                p.Phase.max_congestion p.Phase.max_message_bits p.Phase.total_bits
                p.Phase.local_deliveries p.Phase.busiest_node_load
                r.K.diagnostics.K.mean_trees_per_node)
            (golden_conditions ~n))
        [ m / 4; m / 2; m ])
    [ 8; 32; 128 ]

let golden_expected =
  [
    "n=8 k=16 fifo: 29170.2.0 r=99 m=278 c=7 mb=2128 b=42892 l=597 bn=58 t=12.25";
    "n=8 k=16 faults: 29170.2.0 r=350 m=440 c=11 mb=1237 b=58870 l=597 bn=113 t=12.25";
    "n=8 k=16 crash-sort: 29170.2.0 r=138 m=318 c=9 mb=1585 b=53746 l=597 bn=72 t=12.25";
    "n=8 k=16 shuffle: 29170.2.0 r=112 m=315 c=7 mb=2128 b=43225 l=597 bn=71 t=12.25";
    "n=8 k=16 crossing: 29170.2.0 r=99 m=278 c=7 mb=2128 b=42892 l=597 bn=58 t=12.25";
    "n=8 k=16 bias: 29170.2.0 r=123 m=361 c=6 mb=1746 b=43639 l=597 bn=84 t=12.25";
    "n=8 k=32 fifo: 49181.2.7 r=99 m=267 c=7 mb=1454 b=35239 l=528 bn=53 t=11";
    "n=8 k=32 faults: 49181.2.7 r=326 m=351 c=8 mb=1318 b=47578 l=528 bn=85 t=11";
    "n=8 k=32 crash-sort: 49181.2.7 r=138 m=317 c=16 mb=1302 b=46150 l=528 bn=67 t=11";
    "n=8 k=32 shuffle: 49181.2.7 r=113 m=286 c=6 mb=1454 b=35410 l=528 bn=60 t=11";
    "n=8 k=32 crossing: 49181.2.7 r=99 m=267 c=7 mb=1454 b=35239 l=528 bn=53 t=11";
    "n=8 k=32 bias: 49181.2.7 r=123 m=329 c=6 mb=1454 b=35797 l=528 bn=77 t=11";
    "n=8 k=64 fifo: 99636.7.1 r=95 m=212 c=6 mb=1526 b=21906 l=385 bn=46 t=7.625";
    "n=8 k=64 faults: 99636.7.1 r=329 m=262 c=7 mb=1107 b=31002 l=385 bn=65 t=7.625";
    "n=8 k=64 crash-sort: 99636.7.1 r=134 m=248 c=10 mb=1336 b=30414 l=385 bn=58 t=7.625";
    "n=8 k=64 shuffle: 99636.7.1 r=109 m=246 c=6 mb=1526 b=22212 l=385 bn=57 t=7.625";
    "n=8 k=64 crossing: 99636.7.1 r=95 m=212 c=6 mb=1526 b=21906 l=385 bn=46 t=7.625";
    "n=8 k=64 bias: 99636.7.1 r=119 m=261 c=6 mb=1526 b=22347 l=385 bn=66 t=7.625";
    "n=32 k=64 fifo: 25389.25.4 r=391 m=3396 c=22 mb=1432 b=279095 l=2393 bn=246 t=7.25";
    "n=32 k=64 faults: 25389.25.4 r=1239 m=4093 c=16 mb=1282 b=424619 l=2393 bn=334 t=7.25";
    "n=32 k=64 crash-sort: 25389.25.4 r=442 m=3444 c=22 mb=1465 b=393467 l=2393 bn=258 t=7.25";
    "n=32 k=64 shuffle: 25389.25.4 r=431 m=3888 c=20 mb=1277 b=286475 l=2393 bn=297 t=7.25";
    "n=32 k=64 crossing: 25389.25.4 r=391 m=3396 c=22 mb=1432 b=279095 l=2393 bn=246 t=7.25";
    "n=32 k=64 bias: 25389.25.4 r=472 m=3589 c=21 mb=1283 b=281990 l=2393 bn=265 t=7.25";
    "n=32 k=128 fifo: 52134.3.7 r=391 m=3226 c=22 mb=1396 b=258161 l=2327 bn=231 t=6.770833333333333";
    "n=32 k=128 faults: 52134.3.7 r=1199 m=3809 c=14 mb=1156 b=392603 l=2327 bn=300 t=6.770833333333333";
    "n=32 k=128 crash-sort: 52134.3.7 r=442 m=3348 c=22 mb=1429 b=370475 l=2327 bn=246 t=6.770833333333333";
    "n=32 k=128 shuffle: 52134.3.7 r=434 m=3584 c=18 mb=1265 b=263531 l=2327 bn=275 t=6.770833333333333";
    "n=32 k=128 crossing: 52134.3.7 r=391 m=3226 c=22 mb=1396 b=258161 l=2327 bn=231 t=6.770833333333333";
    "n=32 k=128 bias: 52134.3.7 r=469 m=3318 c=21 mb=1396 b=259541 l=2327 bn=239 t=6.770833333333333";
    "n=32 k=256 fifo: 99881.0.2 r=274 m=1605 c=18 mb=955 b=105601 l=1368 bn=119 t=4.21875";
    "n=32 k=256 faults: 99881.0.2 r=910 m=1771 c=12 mb=988 b=166534 l=1368 bn=151 t=4.21875";
    "n=32 k=256 crash-sort: 99881.0.2 r=317 m=1701 c=13 mb=848 b=163174 l=1368 bn=137 t=4.21875";
    "n=32 k=256 shuffle: 99881.0.2 r=305 m=1726 c=11 mb=811 b=107416 l=1368 bn=140 t=4.21875";
    "n=32 k=256 crossing: 99881.0.2 r=274 m=1605 c=18 mb=955 b=105601 l=1368 bn=119 t=4.21875";
    "n=32 k=256 bias: 99881.0.2 r=334 m=1718 c=16 mb=815 b=107296 l=1368 bn=141 t=4.21875";
    "n=128 k=256 fifo: 24225.72.7 r=868 m=19967 c=60 mb=3362 b=2011144 l=10782 bn=621 t=8.513671875";
    "n=128 k=256 faults: 24225.72.7 r=2339 m=23466 c=37 mb=3312 b=2859001 l=10782 bn=824 t=8.513671875";
    "n=128 k=256 crash-sort: 24225.72.7 r=931 m=20430 c=60 mb=3395 b=2695057 l=10782 bn=639 t=8.513671875";
    "n=128 k=256 shuffle: 24225.72.7 r=992 m=22238 c=41 mb=2357 b=2058835 l=10782 bn=742 t=8.513671875";
    "n=128 k=256 crossing: 24225.72.7 r=868 m=19967 c=60 mb=3362 b=2011144 l=10782 bn=621 t=8.513671875";
    "n=128 k=256 bias: 24225.72.7 r=883 m=20375 c=60 mb=3362 b=2019712 l=10782 bn=646 t=8.513671875";
    "n=128 k=512 fifo: 50736.126.6 r=868 m=17251 c=49 mb=2480 b=1636976 l=10115 bn=542 t=7.07421875";
    "n=128 k=512 faults: 50736.126.6 r=2137 m=19917 c=27 mb=2076 b=2350223 l=10115 bn=693 t=7.07421875";
    "n=128 k=512 crash-sort: 50736.126.6 r=931 m=17763 c=46 mb=2513 b=2233907 l=10115 bn=559 t=7.07421875";
    "n=128 k=512 shuffle: 50736.126.6 r=984 m=19129 c=40 mb=1803 b=1676414 l=10115 bn=647 t=7.07421875";
    "n=128 k=512 crossing: 50736.126.6 r=868 m=17251 c=49 mb=2480 b=1636976 l=10115 bn=542 t=7.07421875";
    "n=128 k=512 bias: 50736.126.6 r=880 m=17551 c=48 mb=2480 b=1643276 l=10115 bn=548 t=7.07421875";
    "n=128 k=1024 fifo: 99906.89.4 r=670 m=11959 c=49 mb=2126 b=1112074 l=7735 bn=376 t=6.25";
    "n=128 k=1024 faults: 99906.89.4 r=1687 m=13761 c=25 mb=2159 b=1604029 l=7735 bn=481 t=6.25";
    "n=128 k=1024 crash-sort: 99906.89.4 r=725 m=12497 c=49 mb=2159 b=1535773 l=7735 bn=397 t=6.25";
    "n=128 k=1024 shuffle: 99906.89.4 r=762 m=13122 c=29 mb=2126 b=1136497 l=7735 bn=429 t=6.25";
    "n=128 k=1024 crossing: 99906.89.4 r=670 m=11959 c=49 mb=2126 b=1112074 l=7735 bn=376 t=6.25";
    "n=128 k=1024 bias: 99906.89.4 r=679 m=12353 c=48 mb=2126 b=1120348 l=7735 bn=391 t=6.25";
  ]

let test_golden_figures () =
  let rows = golden_rows () in
  if rows <> golden_expected then
    List.iter (fun r -> Printf.eprintf "    %S;\n" r) rows;
  Alcotest.(check (list string)) "every figure as recorded" golden_expected rows

(* Allocation regression: minor words per reported KSelect message, at one
   candidate per node and k = m/2.  The count is deterministic for a fixed
   seed.  The bound of 75 sits between the ~40 words the sorting stage's
   flat per-stage arrays cost and the ~100 that per-node outbox hashtables
   and tuple-keyed copy and rendezvous tables cost. *)
let test_words_per_message () =
  let per_msg n =
    let rng = Dpq_util.Rng.create ~seed:(n + 7) in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:1 ~prio_range:1_000_000 in
    let k = n / 2 in
    let before = Gc.minor_words () in
    let r = K.select ~seed:3 ~tree ~elements ~k () in
    let words = Gc.minor_words () -. before in
    let all = Array.to_list elements |> List.concat in
    checkb "selects the right element" true (E.equal r.K.element (K.select_seq all ~k));
    (n, words /. float_of_int r.K.report.Phase.messages)
  in
  let ws = List.map per_msg [ 256; 1024 ] in
  checkb
    (String.concat ", " (List.map (fun (n, w) -> Printf.sprintf "n=%d: %.1f" n w) ws)
    ^ " minor words per message, each <= 75")
    true
    (List.for_all (fun (_, w) -> w <= 75.0) ws)

let () =
  Alcotest.run "dpq_kselect"
    [
      ( "oracle",
        [
          Alcotest.test_case "select_seq" `Quick test_select_seq;
          Alcotest.test_case "kth_statistics" `Quick test_kth_statistics;
        ] );
      ( "select",
        [
          Alcotest.test_case "small network all k" `Quick test_small_network_all_k;
          Alcotest.test_case "medium network" `Quick test_medium_network_selected_k;
          Alcotest.test_case "duplicate priorities" `Quick test_duplicate_priorities;
          Alcotest.test_case "all same priority" `Quick test_all_same_priority;
          Alcotest.test_case "skewed distribution" `Quick test_skewed_distribution;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "one element" `Quick test_one_element;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          QCheck_alcotest.to_alcotest prop_kselect_matches_oracle;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "phase 1 reduces candidates" `Quick test_phase1_reduces_candidates;
          Alcotest.test_case "phase 2 reaches threshold" `Quick test_phase2_reaches_threshold;
          Alcotest.test_case "trees per node bounded" `Quick test_trees_per_node_bounded;
          Alcotest.test_case "phase 2 geometric drop (64 seeds)" `Quick
            test_phase2_geometric_drop_64_seeds;
          Alcotest.test_case "rounds logarithmic" `Slow test_rounds_logarithmic;
          Alcotest.test_case "message bits logarithmic" `Quick test_message_bits_logarithmic;
          Alcotest.test_case "rounds per log2(n) constant" `Slow test_rounds_per_log_constant;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential_matches_and_drops;
          Alcotest.test_case "large grid messages drop" `Quick test_differential_large_grid;
          Alcotest.test_case "planted misaggregation caught" `Quick
            test_planted_misaggregation_caught;
          Alcotest.test_case "phase-1 hint reuse" `Quick test_phase1_hint_reuse;
        ] );
      ( "figures",
        [
          Alcotest.test_case "golden figures" `Quick test_golden_figures;
          Alcotest.test_case "minor words per message" `Quick test_words_per_message;
        ] );
    ]
