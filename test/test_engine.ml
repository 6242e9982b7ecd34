(* Tests for the batched / parallel query engine: the prefix-sharing trie
   executor, Polca's session mode, the worker-domain pool, the bounded
   memo tables, and end-to-end engine equivalence — every fast path must
   be observationally identical to sequential reset-and-replay. *)

module B = Cq_cache.Block
module CS = Cq_cache.Cache_set
module O = Cq_cache.Oracle
module M = Cq_hwsim.Machine
module Zoo = Cq_policy.Zoo

let random_word prng ~universe ~max_len =
  let len = 1 + Cq_util.Prng.int prng max_len in
  List.init len (fun _ -> B.of_index (Cq_util.Prng.int prng universe))

let random_batch prng ~batch ~universe ~max_len =
  List.init batch (fun _ -> random_word prng ~universe ~max_len)

(* Trie execution of a batch must be byte-identical to answering each
   query from reset, across policies with different metadata shapes. *)
let test_batch_matches_sequential () =
  List.iter
    (fun name ->
      let prng = Cq_util.Prng.of_int 42 in
      let oracle = O.of_policy (Zoo.make_exn ~name ~assoc:4) in
      for _ = 1 to 10 do
        let batch = random_batch prng ~batch:12 ~universe:8 ~max_len:10 in
        let batched = oracle.O.query_batch batch in
        let sequential = List.map oracle.O.query batch in
        Alcotest.(check bool)
          (name ^ ": batch = sequential") true
          (batched = sequential)
      done)
    [ "LRU"; "PLRU"; "SRRIP-HP" ]

(* Prefix sharing must be a real saving: a batch with overlapping prefixes
   costs strictly fewer physical accesses than naive replay, and exactly
   what [plan_cost] predicts. *)
let test_trie_saves_accesses () =
  let set = CS.create (Zoo.make_exn ~name:"PLRU" ~assoc:4) in
  let oracle = O.of_cache_set set in
  let prng = Cq_util.Prng.of_int 7 in
  let prefix = random_word prng ~universe:6 ~max_len:8 in
  let batch = List.init 8 (fun i -> prefix @ [ B.of_index (i mod 6) ]) in
  let before = CS.accesses set in
  let answers = oracle.O.query_batch batch in
  let physical = CS.accesses set - before in
  let naive = List.fold_left (fun acc q -> acc + List.length q) 0 batch in
  Alcotest.(check int) "every query answered" 8 (List.length answers);
  Alcotest.(check bool) "strictly fewer accesses" true (physical < naive);
  let plan_naive, plan_trie = Cq_cache.Batch.plan_cost batch in
  Alcotest.(check int) "plan_cost naive" naive plan_naive;
  Alcotest.(check int) "plan_cost trie = physical accesses" physical plan_trie

(* Polca's session mode (live trace + checkpointed findEvicted scans) must
   produce the same outputs as per-probe replay of Algorithm 1. *)
let test_session_matches_replay () =
  List.iter
    (fun name ->
      let prng = Cq_util.Prng.of_int 11 in
      let session =
        Cq_core.Polca.create (O.of_policy (Zoo.make_exn ~name ~assoc:4))
      in
      let replay =
        Cq_core.Polca.create ~batch_probes:false
          (O.of_policy (Zoo.make_exn ~name ~assoc:4))
      in
      let n = Cq_core.Polca.n_inputs session in
      for _ = 1 to 20 do
        let len = 1 + Cq_util.Prng.int prng 12 in
        let word = List.init len (fun _ -> Cq_util.Prng.int prng n) in
        Alcotest.(check bool)
          (name ^ ": session = replay") true
          (Cq_core.Polca.run session word = Cq_core.Polca.run replay word)
      done)
    [ "LRU"; "PLRU"; "FIFO"; "SRRIP-HP"; "LIP" ]

(* The machine-level checkpoint must restore the full architectural state,
   and its restore thunk must be reusable (the session-mode fan-out scans
   restore the same checkpoint up to [assoc] times). *)
let test_machine_checkpoint () =
  let m = M.create ~noise:M.quiet_noise Cq_hwsim.Cpu_model.toy in
  let addrs = List.init 12 (fun i -> i * 64) in
  List.iter (fun a -> ignore (M.load m a)) addrs;
  let restore = M.checkpoint m in
  let probe () =
    List.map (fun a -> M.load m a)
      (List.filteri (fun i _ -> i mod 3 = 0) addrs)
  in
  let first = probe () in
  restore ();
  Alcotest.(check (list int)) "identical replay after restore" first (probe ());
  restore ();
  Alcotest.(check (list int)) "restore thunk is reusable" first (probe ())

(* Differential test of the journaled checkpoint.  A random program of
   loads, clflushes, wbinvds (and CAT re-partitions, on a CAT model) is
   interleaved with nested checkpoints and repeated restores of random
   live ones.  After every restore the machine must equal a fresh machine
   of the same seed that replayed only the operations before that
   checkpoint: the tags of every touched set at every level, the PSEL
   counter, and the latencies of a fixed probe.  Ending the checkpoints
   (what a query reset does) must make every earlier checkpoint raise on
   restore, and a raising restore must leave the state untouched. *)
type machine_op = Load of int | Clflush of int | Wbinvd | Cat of int

let apply_op m = function
  | Load a -> ignore (M.load m a)
  | Clflush a -> M.clflush m a
  | Wbinvd -> M.wbinvd m
  | Cat ways -> M.set_cat_ways m ways

let journal_differential ~seed model =
  let module CM = Cq_hwsim.Cpu_model in
  let fresh () = M.create ~seed:(Int64.of_int seed) ~noise:M.default_noise model in
  let m = fresh () in
  (* Lines that collide in one L1 set, and in leader and follower L3
     sets, so fills evict, L3 evictions back-invalidate and PSEL moves. *)
  let l3_sets = [ 0; 512; 768 ] in
  let pool =
    Array.of_list
      (M.congruent_addresses m CM.L1 ~slice:0 ~set:0 12
      @ List.concat_map
          (fun set ->
            M.congruent_addresses m CM.L3 ~slice:0
              ~set:(set mod model.CM.l3.CM.sets_per_slice)
              (model.CM.l3.CM.assoc + 4))
          l3_sets)
  in
  let touched =
    List.sort_uniq compare
      (List.concat_map
         (fun level ->
           List.map
             (fun a ->
               let slice, set = M.map_addr m level a in
               (level, slice, set))
             (Array.to_list pool))
         CM.all_levels)
  in
  let probe = List.init 6 (fun i -> pool.(i * 3 mod Array.length pool)) in
  let prng = Cq_util.Prng.of_int (seed * 7919) in
  let random_op () =
    let addr () = pool.(Cq_util.Prng.int prng (Array.length pool)) in
    match Cq_util.Prng.int prng 100 with
    | n when n < 75 -> Load (addr ())
    | n when n < 93 -> Clflush (addr ())
    | n when n < 96 -> Wbinvd
    | _ when model.CM.supports_cat ->
        (* the L3 policies need at least two ways *)
        Cat (2 + Cq_util.Prng.int prng (model.CM.l3.CM.assoc - 1))
    | _ -> Load (addr ())
  in
  let state m =
    ( List.map (fun (level, slice, set) -> M.peek_set m level ~slice ~set) touched,
      M.psel m )
  in
  let reference log =
    let r = fresh () in
    List.iter (apply_op r) (List.rev log);
    r
  in
  let same what log =
    let r = reference log in
    Alcotest.(check bool) (what ^ ": sets and PSEL") true (state m = state r);
    r
  in
  let log = ref [] (* operations since creation, newest first *) in
  let live = ref [] (* (restore, log at the checkpoint), newest first *) in
  for step = 1 to 400 do
    match Cq_util.Prng.int prng 100 with
    | n when n < 12 -> live := (M.checkpoint m, !log) :: !live
    | n when n < 26 && !live <> [] ->
        let k = Cq_util.Prng.int prng (List.length !live) in
        let restore, at = List.nth !live k in
        restore ();
        (* Checkpoints newer than the restored one are gone. *)
        live := List.filteri (fun i _ -> i >= k) !live;
        log := at;
        let what = Printf.sprintf "%s step %d" model.CM.name step in
        let r = same what at in
        let latencies m = List.map (M.load m) probe in
        Alcotest.(check (list int)) (what ^ ": probe latencies")
          (latencies r) (latencies m);
        (* The thunk is reusable: undo the probe. *)
        restore ()
    | n when n < 28 ->
        M.end_checkpoints m;
        List.iter
          (fun (restore, _) ->
            Alcotest.check_raises "restore after a reset"
              (Invalid_argument "Cache_level: restoring a checkpoint that has ended")
              restore)
          !live;
        live := [];
        ignore (same (Printf.sprintf "%s step %d: after failed restores" model.CM.name step) !log)
    | _ ->
        let op = random_op () in
        apply_op m op;
        log := op :: !log
  done

let test_journal_matches_replay () =
  List.iter
    (fun (seed, model) -> journal_differential ~seed model)
    [
      (1, Cq_hwsim.Cpu_model.toy);
      (2, Cq_hwsim.Cpu_model.toy);
      (3, Cq_hwsim.Cpu_model.haswell);
      (4, Cq_hwsim.Cpu_model.skylake);
    ]

(* The frontend's reset ends every device checkpoint (the Batch.ops
   contract): restoring one taken before a reset raises. *)
let test_reset_ends_checkpoints () =
  let module BE = Cq_cachequery.Backend in
  let module FE = Cq_cachequery.Frontend in
  let m = M.create ~noise:M.quiet_noise Cq_hwsim.Cpu_model.toy in
  let be = BE.create m { BE.level = Cq_hwsim.Cpu_model.L1; slice = 0; set = 0 } in
  ignore (BE.calibrate be);
  let ops = Option.get (FE.oracle (FE.create be)).O.ops in
  ops.Cq_cache.Batch.reset ();
  let restore = ops.Cq_cache.Batch.checkpoint () in
  ignore (ops.Cq_cache.Batch.access (B.of_index 5));
  restore ();
  ops.Cq_cache.Batch.reset ();
  Alcotest.check_raises "restore after a reset"
    (Invalid_argument "Cache_level: restoring a checkpoint that has ended")
    restore

(* The pool must return results in item order, identical to sequential
   execution, regardless of domain scheduling. *)
let test_pool_matches_sequential () =
  let pool = Cq_util.Pool.create ~size:3 ~factory:(fun () -> ref 0) () in
  let items = List.init 100 Fun.id in
  let results = Cq_util.Pool.map_list pool (fun c x -> incr c; x * x) items in
  Alcotest.(check (list int))
    "pool = sequential"
    (List.map (fun x -> x * x) items)
    results

(* A task that fails deterministically exhausts every bounded retry and
   surfaces as Worker_lost (the supervisor's taxonomy), carrying the
   original exception's message. *)
let test_pool_propagates_exceptions () =
  let pool = Cq_util.Pool.create ~size:2 ~factory:(fun () -> ()) () in
  match
    Cq_util.Pool.map_list pool
      (fun () x -> if x >= 3 then failwith "boom" else x)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker failure to propagate"
  | exception Cq_util.Pool.Worker_lost msg ->
      let contains s sub =
        let n = String.length sub in
        let found = ref false in
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then found := true
        done;
        !found
      in
      Alcotest.(check bool) "carries the original failure" true
        (contains msg "boom")

(* A transient failure (one poisoned context) must not lose the batch:
   completed results are salvaged, the failed task is retried on a rebuilt
   context, and the restart is reported through the stats record. *)
let test_pool_salvages_transient_failure () =
  let stats = Cq_util.Pool.fresh_stats () in
  let pool =
    Cq_util.Pool.create ~size:2 ~stats ~factory:(fun () -> ref 0) ()
  in
  let failed_once = Atomic.make false in
  let items = List.init 20 Fun.id in
  let results =
    Cq_util.Pool.map_list pool
      (fun c x ->
        incr c;
        if x = 7 && not (Atomic.exchange failed_once true) then
          failwith "transient glitch";
        x * x)
      items
  in
  Alcotest.(check (list int))
    "all tasks completed despite the injected failure"
    (List.map (fun x -> x * x) items)
    results;
  Alcotest.(check bool) "restart reported" true
    (Cq_util.Metrics.value stats.Cq_util.Pool.worker_restarts >= 1);
  Alcotest.(check bool) "retry reported" true
    (Cq_util.Metrics.value stats.Cq_util.Pool.task_retries >= 1)

(* Regression: a retried (salvaged) task must be counted once in
   [tasks] — completions, not attempts.  The old accounting summed per
   attempt, double-counting every salvaged slot. *)
let test_pool_task_count_reconciled_once () =
  let stats = Cq_util.Pool.fresh_stats () in
  let pool =
    Cq_util.Pool.create ~size:2 ~stats ~factory:(fun () -> ref 0) ()
  in
  let failed_once = Atomic.make false in
  let items = List.init 20 Fun.id in
  let results =
    Cq_util.Pool.map_list pool
      (fun c x ->
        incr c;
        if x = 7 && not (Atomic.exchange failed_once true) then
          failwith "transient glitch";
        x * x)
      items
  in
  Alcotest.(check (list int))
    "all tasks completed"
    (List.map (fun x -> x * x) items)
    results;
  Alcotest.(check bool) "the failure actually retried" true
    (Cq_util.Metrics.value stats.Cq_util.Pool.task_retries >= 1);
  Alcotest.(check int) "tasks counted once each, not per attempt"
    (List.length items)
    (Cq_util.Metrics.value stats.Cq_util.Pool.tasks)

(* Worker contexts are built once per slot and survive across map calls
   (that is what keeps worker oracle caches warm between rounds). *)
let test_pool_contexts_persist () =
  let built = Atomic.make 0 in
  let pool =
    Cq_util.Pool.create ~size:2
      ~factory:(fun () -> Atomic.incr built; ref 0)
      ()
  in
  ignore (Cq_util.Pool.map_list pool (fun c x -> incr c; x) (List.init 8 Fun.id));
  ignore (Cq_util.Pool.map_list pool (fun c x -> incr c; x) (List.init 8 Fun.id));
  Alcotest.(check bool) "at most [size] contexts built" true (Atomic.get built <= 2)

(* Bounded memo: overflow clears the table (and says so) without ever
   changing answers. *)
let test_memo_overflow () =
  let stats = O.fresh_stats () in
  let plain = O.of_policy (Zoo.make_exn ~name:"LRU" ~assoc:4) in
  let oracle = O.memoized ~stats ~max_entries:2 plain in
  let q i = [ B.of_index i; B.of_index ((i + 1) mod 6); B.of_index 0 ] in
  for i = 0 to 5 do
    ignore (oracle.O.query (q i))
  done;
  Alcotest.(check bool) "overflows recorded" true (Cq_util.Metrics.value stats.O.memo_overflows > 0);
  for i = 0 to 5 do
    Alcotest.(check bool) "answers unchanged by clears" true
      (oracle.O.query (q i) = plain.O.query (q i))
  done

(* End to end: all three engines learn the same automaton, and the batched
   engine actually saves accesses while doing it. *)
let test_engines_agree () =
  let policy () = Zoo.make_exn ~name:"PLRU" ~assoc:4 in
  let learn engine =
    Cq_core.Learn.learn_simulated ~engine ~identify:false (policy ())
  in
  let seq = learn Cq_core.Learn.Sequential in
  let bat = learn Cq_core.Learn.Batched in
  let par = learn (Cq_core.Learn.Parallel { domains = 2 }) in
  Alcotest.(check int) "batched states" seq.Cq_core.Learn.states
    bat.Cq_core.Learn.states;
  Alcotest.(check int) "parallel states" seq.Cq_core.Learn.states
    par.Cq_core.Learn.states;
  Alcotest.(check bool) "batched machine equivalent" true
    (Cq_automata.Mealy.equivalent seq.Cq_core.Learn.machine
       bat.Cq_core.Learn.machine);
  Alcotest.(check bool) "parallel machine equivalent" true
    (Cq_automata.Mealy.equivalent seq.Cq_core.Learn.machine
       par.Cq_core.Learn.machine);
  Alcotest.(check bool) "batched engine saves accesses" true
    (bat.Cq_core.Learn.accesses_saved > 0);
  Alcotest.(check bool) "sequential engine saves nothing" true
    (seq.Cq_core.Learn.accesses_saved = 0);
  Alcotest.(check int) "parallel reports its domains" 2
    par.Cq_core.Learn.domains

(* Acceptance for the noise-hardened layer: with voting enabled the
   frontend still exposes the batched/session path, and it must answer
   exactly like per-query sequential execution on an equally-noisy
   machine. *)
let test_batch_matches_sequential_under_noise () =
  let module FE = Cq_cachequery.Frontend in
  let module BE = Cq_cachequery.Backend in
  let module CM = Cq_hwsim.Cpu_model in
  let mk () =
    let machine = M.create ~noise:M.default_noise CM.toy in
    let be = BE.create machine { BE.level = CM.L1; slice = 0; set = 0 } in
    ignore (BE.calibrate be);
    FE.create ~voting:(FE.Adaptive { max = 5 }) be
  in
  let words =
    List.map
      (List.map B.of_index)
      [ [ 0; 1; 0; 2 ]; [ 1; 1; 0 ]; [ 2; 0; 1; 2 ]; [ 0 ]; [ 2; 2; 1; 0; 1 ] ]
  in
  let fe_seq = mk () and fe_bat = mk () in
  Alcotest.(check bool) "voting keeps the session path available" true
    (Option.is_some (FE.oracle fe_bat).O.ops
    && (FE.oracle fe_bat).O.prefix_sharing);
  let seq = List.map (FE.oracle fe_seq).O.query words in
  let bat = (FE.oracle fe_bat).O.query_batch words in
  Alcotest.(check bool) "batched = sequential under noise" true (seq = bat)

let suite =
  ( "engine",
    [
      Alcotest.test_case "trie batch = sequential" `Quick
        test_batch_matches_sequential;
      Alcotest.test_case "trie saves accesses" `Quick test_trie_saves_accesses;
      Alcotest.test_case "session = replay (Polca)" `Quick
        test_session_matches_replay;
      Alcotest.test_case "machine checkpoint determinism" `Quick
        test_machine_checkpoint;
      Alcotest.test_case "journaled checkpoint = replay" `Quick
        test_journal_matches_replay;
      Alcotest.test_case "reset ends checkpoints" `Quick
        test_reset_ends_checkpoints;
      Alcotest.test_case "pool = sequential" `Quick test_pool_matches_sequential;
      Alcotest.test_case "pool propagates exceptions" `Quick
        test_pool_propagates_exceptions;
      Alcotest.test_case "pool salvages transient failures" `Quick
        test_pool_salvages_transient_failure;
      Alcotest.test_case "pool counts retried tasks once" `Quick
        test_pool_task_count_reconciled_once;
      Alcotest.test_case "pool contexts persist" `Quick
        test_pool_contexts_persist;
      Alcotest.test_case "bounded memo overflow" `Quick test_memo_overflow;
      Alcotest.test_case "engines agree" `Quick test_engines_agree;
      Alcotest.test_case "batched = sequential under noise" `Quick
        test_batch_matches_sequential_under_noise;
    ] )
