(* One pass of one benchmark workload, printed as a single JSON line.

   Usage: pass.exe WORKLOAD SEED untraced|traced

   The workload is generated from SEED and driven through the public API
   ({!Dpq.Dpq_heap} for the closed-loop workloads, {!Runner.run_open} for the
   open-loop one).  The untraced pass times the benchmark's own calls into
   each layer (wall time and minor words around each call); the traced pass
   attaches a {!Dpq_obs.Trace} sink and folds its events into per-span
   tallies after every processed batch, clearing the sink each time so
   memory stays bounded.  perfbench/run.py runs each pass in a fresh process,
   aggregates passes and cross-checks them. *)

module Heap = Dpq.Dpq_heap
module W = Dpq_workloads.Workload
module Runner = Dpq_workloads.Runner
module Trace = Dpq_obs.Trace
module Online = Dpq_semantics.Checker.Online
module Run_digest = Dpq_explore.Run_digest
module Fault_plan = Dpq_simrt.Fault_plan
module Batch_ctl = Dpq_gossip.Batch_ctl
module Gossip = Dpq_gossip.Gossip

type closed = {
  backend : Heap.backend;
  n : int;
  rounds : int;
  dist : W.prio_dist;
  prefill : int;  (** elements per node stored before the measured phase *)
}

type open_loop = {
  o_n : int;
  ticks : int;
  arrival : W.arrival;
  window : Batch_ctl.config;
  replication : int;
  faults : string;
}

type workload = Closed of closed | Open of open_loop

let uniform = W.Uniform (1, 1_000_000)

(* Why each workload exists is recorded in BENCHMARK.json.  perfbench/run.py
   pools several passes with different seeds for the closed-loop workloads,
   so that every pooled run completes well over 10^4 ops and its p999
   latency has at least ten samples beyond it. *)
let workloads =
  [
    ( "skeap-steady",
      Closed
        {
          backend = Heap.Skeap { num_prios = 4 };
          n = 4096;
          rounds = 32;
          dist = W.Constant_set 4;
          prefill = 0;
        } );
    ("seap-shallow", Closed { backend = Heap.Seap; n = 1024; rounds = 16; dist = uniform; prefill = 0 });
    ("seap-deep", Closed { backend = Heap.Seap; n = 256; rounds = 16; dist = uniform; prefill = 32 });
    ( "skeap-burst-faults",
      Open
        {
          o_n = 64;
          ticks = 4096;
          arrival = W.Burst { on = 5; off = 15; high = 1.0; low = 0.1 };
          (* With w_max=1024 and headroom 0.8 the controller's first fit
             picks either ~1024 or ~150 ticks depending on the arrival
             sample, and the max congestion, message size and p999 follow
             that choice (381-1,923 congestion across seeds).  Headroom 0.5
             settles the window at w_max after the first fit, and 256 keeps
             the makespan within 5% of the arrival span. *)
          window = { Batch_ctl.w_min = 1; w_max = 256; headroom = 0.5; hysteresis = 0.25 };
          replication = 3;
          (* Random drops (even drop=0.001) make the max congestion swing
             between 2,800 and 5,400 across workload seeds through
             retransmission bursts, so no bound could hold on it; two crash
             windows drive the same retransmit path at fixed ticks. *)
          faults = "crash=3@1000-1100,crash=40@2000-2100,kill=7@500";
        } );
  ]

let spec ~n ~rounds ~insert_ratio ~dist ~seed ~arrival =
  { W.Gen.n; rounds; lambda = 1; insert_ratio; dist; seed; arrival }

(* The protocol's own randomness (overlay, hashing, sampling, the fault
   plan's draws) is part of the system under test and stays fixed; the
   benchmark seed varies only the generated operations. *)
let system_seed = 1

(* The seap-deep prefill is generated like the measured phase, from a
   stream derived from the same seed. *)
let prefill_seed seed = seed + 1_000_003

let now = Unix.gettimeofday

(* ------------------------------------------------------ outside timing *)

type clock = { mutable secs : float; mutable words : float }

let clock () = { secs = 0.0; words = 0.0 }

let timed c f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  c.secs <- c.secs +. (now () -. t0);
  c.words <- c.words +. (Gc.minor_words () -. w0);
  r

(* Nearest-rank percentile over a histogram of integer latencies. *)
let hist_add h v ~count =
  if count > 0 then Hashtbl.replace h v (count + Option.value ~default:0 (Hashtbl.find_opt h v))

let hist_percentile h p =
  let keys = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []) in
  let total = Hashtbl.fold (fun _ c acc -> c + acc) h 0 in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int total))) in
  let rec go cum = function
    | [] -> 0
    | k :: rest ->
        let cum = cum + Hashtbl.find h k in
        if cum >= rank then k else go cum rest
  in
  go 0 keys

let percentile xs p =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let rank = max 1 (int_of_float (ceil (p *. float_of_int (Array.length a)))) in
      a.(rank - 1)

(* ------------------------------------------------------ trace tallies *)

type span_tally = {
  mutable s_rounds : int;
  mutable s_messages : int;
  mutable s_bits : int;
  mutable s_max_bits : int;
  mutable s_max_cong : int;
}

type tally = {
  spans : (string, span_tally) Hashtbl.t;
  mutable rounds : int;
  mutable messages : int;
  mutable bits : int;
  mutable max_cong : int;
  mutable puts : int;
  mutable gets : int;
  mutable anchor_batches : int;
  mutable anchor_ops : int;
  mutable selections : int;
  mutable ksel_messages : int;
  mutable phase1_iters : int;
  mutable phase2_iters : int;
  mutable hint_hits : int;
  mutable exchanges : int;
  mutable gossip_messages : int;
  mutable window_changes : int;
  mutable retransmits : int;
  mutable faults_injected : int;
  mutable repair_sessions : int;
  mutable keys_pulled : int;
}

let tally_create () =
  {
    spans = Hashtbl.create 16;
    rounds = 0;
    messages = 0;
    bits = 0;
    max_cong = 0;
    puts = 0;
    gets = 0;
    anchor_batches = 0;
    anchor_ops = 0;
    selections = 0;
    ksel_messages = 0;
    phase1_iters = 0;
    phase2_iters = 0;
    hint_hits = 0;
    exchanges = 0;
    gossip_messages = 0;
    window_changes = 0;
    retransmits = 0;
    faults_injected = 0;
    repair_sessions = 0;
    keys_pulled = 0;
  }

let span_tally t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s = { s_rounds = 0; s_messages = 0; s_bits = 0; s_max_bits = 0; s_max_cong = 0 } in
      Hashtbl.replace t.spans name s;
      s

(* Fold every event recorded since the last call into [t], then clear the
   sink.  Called between batches, when no span is open, so span ids never
   straddle two calls.  Congestion cells are (span, round, destination),
   as in {!Trace.max_congestion}. *)
let absorb t trace =
  let names = Hashtbl.create 64 in
  let name_of span = Option.value ~default:"(none)" (Hashtbl.find_opt names span) in
  let cells = Hashtbl.create 4096 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Phase_start { span; name } -> Hashtbl.replace names span name
      | Trace.Phase_end { name; rounds; _ } ->
          let s = span_tally t name in
          s.s_rounds <- s.s_rounds + rounds;
          t.rounds <- t.rounds + rounds
      | Trace.Msg_delivered { span; round; dst; bits; _ } ->
          let s = span_tally t (name_of span) in
          s.s_messages <- s.s_messages + 1;
          s.s_bits <- s.s_bits + bits;
          s.s_max_bits <- max s.s_max_bits bits;
          t.messages <- t.messages + 1;
          t.bits <- t.bits + bits;
          let key = (span, round, dst) in
          Hashtbl.replace cells key (1 + Option.value ~default:0 (Hashtbl.find_opt cells key))
      | Trace.Dht_put _ -> t.puts <- t.puts + 1
      | Trace.Dht_get _ -> t.gets <- t.gets + 1
      | Trace.Anchor_assign { batch_inserts; batch_deletes; _ } ->
          t.anchor_batches <- t.anchor_batches + 1;
          t.anchor_ops <- t.anchor_ops + batch_inserts + batch_deletes
      | Trace.Kselect_round { stage; messages; _ } -> (
          match stage with
          | "phase1" -> t.phase1_iters <- t.phase1_iters + 1
          | "phase1-hint" -> t.hint_hits <- t.hint_hits + 1
          | "phase2" -> t.phase2_iters <- t.phase2_iters + 1
          | "phase3" ->
              (* the last stage of every selection; [messages] is cumulative *)
              t.selections <- t.selections + 1;
              t.ksel_messages <- t.ksel_messages + messages
          | _ -> ())
      | Trace.Gossip_round { messages; _ } ->
          t.exchanges <- t.exchanges + 1;
          t.gossip_messages <- t.gossip_messages + messages
      | Trace.Window_change _ -> t.window_changes <- t.window_changes + 1
      | Trace.Retransmit _ -> t.retransmits <- t.retransmits + 1
      | Trace.Fault_injected _ -> t.faults_injected <- t.faults_injected + 1
      | Trace.Repair_session _ -> t.repair_sessions <- t.repair_sessions + 1
      | Trace.Repair_end { keys_pulled; _ } -> t.keys_pulled <- t.keys_pulled + keys_pulled
      | Trace.Churn _ | Trace.Node_crashed _ | Trace.Sched_perturbed _ | Trace.Repair_start _ -> ())
    (Trace.events trace);
  Hashtbl.iter
    (fun (span, _, _) c ->
      let s = span_tally t (name_of span) in
      s.s_max_cong <- max s.s_max_cong c;
      t.max_cong <- max t.max_cong c)
    cells;
  Trace.clear trace

(* ------------------------------------------------------------- output *)

type value = I of int | F of float | S of string | B of bool

let print_json fields =
  let value = function
    | I i -> string_of_int i
    | F f -> Printf.sprintf "%.17g" f
    | S s -> Printf.sprintf "%S" s
    | B b -> string_of_bool b
  in
  print_endline
    ("{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) fields) ^ "}")

let tally_fields t =
  let span name prefix =
    let s = span_tally t name in
    [
      (prefix ^ ".rounds", I s.s_rounds);
      (prefix ^ ".messages", I s.s_messages);
      (prefix ^ ".bits", I s.s_bits);
    ]
  in
  let dht = span_tally t "dht" and sort = span_tally t "kselect-sort" and repair = span_tally t "repair" in
  span "up" "aggtree.up" @ span "down" "aggtree.down" @ span "broadcast" "aggtree.broadcast"
  @ span "dht" "dht"
  @ [
      ("dht.max_congestion", I dht.s_max_cong);
      ("dht.puts", I t.puts);
      ("dht.gets", I t.gets);
    ]
  @ span "kselect-sort" "kselect.sort"
  @ [
      ("kselect.sort.max_msg_bits", I sort.s_max_bits);
      ("kselect.selections", I t.selections);
      ("kselect.messages", I t.ksel_messages);
      ("kselect.phase1_iters", I t.phase1_iters);
      ("kselect.phase2_iters", I t.phase2_iters);
      ("kselect.hint_hits", I t.hint_hits);
      ("skeap.anchor.batches", I t.anchor_batches);
      ("skeap.anchor.ops", I t.anchor_ops);
      ("gossip.exchanges", I t.exchanges);
      ("gossip.messages", I t.gossip_messages);
      ("gossip.batch_ctl.window_changes", I t.window_changes);
      ("simrt.messages", I t.messages);
      ("simrt.max_congestion", I t.max_cong);
      ("simrt.retransmits", I t.retransmits);
      ("simrt.faults_injected", I t.faults_injected);
      ("dht.repair.sessions", I t.repair_sessions);
      ("dht.repair.keys_pulled", I t.keys_pulled);
      ("dht.repair.messages", I repair.s_messages);
      ("dht.repair.bits", I repair.s_bits);
      ("dht.repair.rounds", I repair.s_rounds);
      ("trace.rounds", I t.rounds);
      ("trace.messages", I t.messages);
      ("trace.bits", I t.bits);
    ]

(* What every pass reports, whatever drove it. *)
type outcome = {
  setup_s : float;
  wall_s : float;
  minor_words : float;
  ops : int;  (** ops the workload generated in the measured phase *)
  lost : int;  (** ops addressed to a permanently killed node, never injected *)
  completed : int;
  ok : bool;
  digest : string;
  rounds : int;
  messages : int;
  bits : int;
  max_msg_bits : int;
  max_congestion : int;
  lat_p50 : int;
  lat_p999 : int;
  lat_hist : (int * int) list;  (** latency -> ops, closed loop only *)
  makespan : int;
  peak_live : int;
  layers : (string * value) list;
}

let report ~workload ~seed ~mode o tally =
  let peak_heap_words = Dpq_simrt.Domain_pool.peak_heap_words () in
  print_json
    ([
       ("workload", S workload);
       ("seed", I seed);
       ("mode", S mode);
       ("ok", B o.ok);
       ("digest", S o.digest);
       ("setup_s", F o.setup_s);
       ("wall_s", F o.wall_s);
       ("minor_words", F o.minor_words);
       ("peak_heap_bytes", I (peak_heap_words * (Sys.word_size / 8)));
       ("ops", I o.ops);
       ("lost", I o.lost);
       ("completed", I o.completed);
       ("rounds", I o.rounds);
       ("messages", I o.messages);
       ("bits", I o.bits);
       ("max_msg_bits", I o.max_msg_bits);
       ("max_congestion", I o.max_congestion);
       ("lat_p50", I o.lat_p50);
       ("lat_p999", I o.lat_p999);
       ( "lat_hist",
         S (String.concat " " (List.map (fun (l, c) -> Printf.sprintf "%d:%d" l c) o.lat_hist)) );
       ("makespan", I o.makespan);
       ("peak_live", I o.peak_live);
     ]
    @ o.layers
    @ match tally with Some t -> tally_fields t | None -> [])

(* ----------------------------------------------------- workload loops *)

let inject h (op : W.op) =
  match op.W.action with
  | `Ins p -> ignore (Heap.insert h ~node:op.W.node ~prio:p)
  | `Del -> Heap.delete_min h ~node:op.W.node

let completed_ops (r : Heap.result) = List.length r.Heap.completions

let median xs = percentile xs 0.5

(* Set-up is short next to the measured phase, so it is repeated (at least
   5 times and 0.3 s) and the median reported; the last result is kept. *)
let setup_median make =
  let t_start = now () in
  let rec go times =
    let t0 = now () in
    let x = make () in
    let times = (now () -. t0) :: times in
    let count = List.length times in
    if count < 5 || (now () -. t_start < 0.3 && count < 1000) then go times else (median times, x)
  in
  go []

let run_closed ~seed ~trace c =
  let tally = tally_create () in
  let absorb () = Option.iter (absorb tally) trace in
  let setup_s, (h, checker, digest) =
    setup_median (fun () ->
        let h = Heap.create ~seed:system_seed ?trace ~n:c.n c.backend in
        let checker = Heap.online_checker h in
        let digest = Run_digest.start () in
        if c.prefill > 0 then begin
          W.Gen.iter
            (List.iter (inject h))
            (W.Gen.create
               (spec ~n:c.n ~rounds:c.prefill ~insert_ratio:1.0 ~dist:c.dist
                  ~seed:(prefill_seed seed) ~arrival:W.Closed));
          let r = Heap.process h in
          if completed_ops r <> c.n * c.prefill then failwith "prefill: not every insert completed";
          let records = Heap.take_oplog h in
          Online.feed_all checker records;
          Run_digest.feed_records digest records
        end;
        Option.iter Trace.clear trace;
        (h, checker, digest))
  in
  let gen =
    W.Gen.create
      (spec ~n:c.n ~rounds:c.rounds ~insert_ratio:0.5 ~dist:c.dist ~seed ~arrival:W.Closed)
  in
  let gen_c = clock () and inject_c = clock () and process_c = clock () in
  let take_c = clock () and check_c = clock () and digest_c = clock () in
  let lat = Hashtbl.create 64 and batch_ms = ref [] in
  let ops = ref 0 and completed = ref 0 and rounds = ref 0 and messages = ref 0 in
  let bits = ref 0 and max_bits = ref 0 and max_cong = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let rec loop () =
    match timed gen_c (fun () -> W.Gen.next gen) with
    | None -> ()
    | Some round ->
        timed inject_c (fun () -> List.iter (inject h) round);
        ops := !ops + List.length round;
        let before = process_c.secs in
        let r = timed process_c (fun () -> Heap.process h) in
        batch_ms := ((process_c.secs -. before) *. 1000.0) :: !batch_ms;
        let done_ = completed_ops r in
        completed := !completed + done_;
        hist_add lat r.Heap.rounds ~count:done_;
        rounds := !rounds + r.Heap.rounds;
        messages := !messages + r.Heap.messages;
        bits := !bits + r.Heap.total_bits;
        max_bits := max !max_bits r.Heap.max_message_bits;
        max_cong := max !max_cong r.Heap.max_congestion;
        let records = timed take_c (fun () -> Heap.take_oplog h) in
        timed check_c (fun () -> Online.feed_all checker records);
        timed digest_c (fun () -> Run_digest.feed_records digest records);
        absorb ();
        loop ()
  in
  loop ();
  let verdict = timed check_c (fun () -> Online.finish checker) in
  let wall_s = now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let clocks = [ gen_c; inject_c; process_c; take_c; check_c; digest_c ] in
  let outcome =
    {
      setup_s;
      wall_s;
      minor_words;
      ops = !ops;
      lost = 0;
      completed = !completed;
      ok = verdict = Ok ();
      digest = Run_digest.finish digest;
      rounds = !rounds;
      messages = !messages;
      bits = !bits;
      max_msg_bits = !max_bits;
      max_congestion = !max_cong;
      lat_p50 = hist_percentile lat 0.5;
      lat_p999 = hist_percentile lat 0.999;
      lat_hist = List.sort compare (Hashtbl.fold (fun l c acc -> (l, c) :: acc) lat []);
      makespan = !rounds;
      peak_live = Online.peak_live checker;
      layers =
        [
          ("workloads.gen_s", F gen_c.secs);
          ("core.inject_s", F inject_c.secs);
          ("core.process_s", F process_c.secs);
          ("core.process_words", F process_c.words);
          ("core.process_ms_p50", F (percentile !batch_ms 0.5));
          ("core.process_ms_p99", F (percentile !batch_ms 0.99));
          ("core.batches", I (List.length !batch_ms));
          ("semantics.take_s", F take_c.secs);
          ("semantics.check_s", F check_c.secs);
          ("semantics.check_words", F check_c.words);
          ("explore.digest_s", F digest_c.secs);
          ("workloads.run_open_s", F 0.0);
          ("run.other_s", F (wall_s -. List.fold_left (fun acc c -> acc +. c.secs) 0.0 clocks));
        ];
    }
  in
  (outcome, tally)

let run_open ~seed ~trace o =
  let backend = Heap.Skeap { num_prios = 4 } in
  let faults () = Fault_plan.of_string ~seed:system_seed o.faults in
  (* Runner.run_open builds its heap inside the measured call, so set-up is
     timed on identically configured heaps built beforehand. *)
  let setup_s, () =
    setup_median (fun () ->
        ignore
          (Sys.opaque_identity
             (Heap.create ~seed:system_seed ~replication:o.replication ~faults:(faults ())
                ~gossip:Gossip.default_config ~n:o.o_n backend)))
  in
  let tally = tally_create () in
  let absorb () = Option.iter (absorb tally) trace in
  let digest = Run_digest.start () and digest_c = clock () and run_c = clock () in
  let sink records =
    timed digest_c (fun () -> Run_digest.feed_records digest records);
    absorb ()
  in
  let gen =
    W.Gen.create
      (spec ~n:o.o_n ~rounds:o.ticks ~insert_ratio:0.5 ~dist:(W.Constant_set 4) ~seed
         ~arrival:o.arrival)
  in
  let faults = faults () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let s =
    timed run_c (fun () ->
        Runner.run_open ~seed:system_seed ~replication:o.replication ?trace ~faults ~sink
          ~window:(Runner.Adaptive o.window) ~n:o.o_n backend gen)
  in
  absorb ();
  let wall_s = now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let completed = s.Runner.inserted + s.Runner.got + s.Runner.empty in
  let outcome =
    {
      setup_s;
      wall_s;
      minor_words;
      ops = s.Runner.ops;
      lost = s.Runner.lost_ops;
      completed;
      ok = s.Runner.semantics_ok;
      digest = Run_digest.finish digest;
      rounds = s.Runner.rounds;
      messages = s.Runner.messages;
      bits = s.Runner.total_bits;
      max_msg_bits = s.Runner.max_message_bits;
      max_congestion = s.Runner.max_congestion;
      lat_p50 = s.Runner.p50_latency;
      lat_p999 = s.Runner.p999_latency;
      lat_hist = [];
      makespan = s.Runner.makespan;
      peak_live = s.Runner.peak_live;
      layers =
        [
          ("workloads.gen_s", F 0.0);
          ("core.inject_s", F 0.0);
          ("core.process_s", F 0.0);
          ("core.process_words", F 0.0);
          ("core.process_ms_p50", F 0.0);
          ("core.process_ms_p99", F 0.0);
          ("core.batches", I 0);
          ("semantics.take_s", F 0.0);
          ("semantics.check_s", F 0.0);
          ("semantics.check_words", F 0.0);
          ("explore.digest_s", F digest_c.secs);
          ("workloads.run_open_s", F (run_c.secs -. digest_c.secs));
          ("run.other_s", F (wall_s -. run_c.secs));
          ("arrival_ticks", I o.ticks);
        ];
    }
  in
  (outcome, tally)

let () =
  match Sys.argv with
  | [| _; name; seed; mode |]
    when List.mem_assoc name workloads
         && int_of_string_opt seed <> None
         && (mode = "untraced" || mode = "traced") ->
      let seed = int_of_string seed in
      let trace = if mode = "traced" then Some (Trace.create ()) else None in
      let outcome, tally =
        match List.assoc name workloads with
        | Closed c -> run_closed ~seed ~trace c
        | Open o -> run_open ~seed ~trace o
      in
      report ~workload:name ~seed ~mode outcome (Option.map (fun _ -> tally) trace)
  | _ ->
      prerr_endline
        ("usage: pass.exe WORKLOAD SEED untraced|traced\nworkloads: "
        ^ String.concat " " (List.map fst workloads));
      exit 2
