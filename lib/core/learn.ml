(* The end-to-end learning loop (§3.4): Polca as membership oracle, L* as
   learner, W-method conformance testing (depth k) as equivalence oracle.

   Corollary 3.4 holds by construction: if learning returns policy P', then
   the policy under learning is trace-equivalent to P' or has more than
   |P'| + k states. *)

type equivalence =
  | W_method of int (* depth k of the conformance suite *)
  | Wp_method of int (* the paper's configuration: smaller suites, same guarantee *)
  | Random_walk of { max_tests : int; max_len : int; seed : int }

let default_equivalence = Wp_method 1

(* Query-engine selection:
   - [Sequential]: one query at a time, reset-and-replay, the sequential
     short-circuit findEvicted scan — the seed's behaviour, kept as the
     baseline for the engine benchmark and the determinism tests.
   - [Batched] (default): closure waves and findEvicted fan-outs go to the
     cache as prefix-shared batches (trie executor over snapshot/restore).
   - [Parallel]: [Batched] plus conformance testing fanned across
     [domains] worker domains, each owning a private oracle stack built
     from [cache_factory]. *)
type engine = Sequential | Batched | Parallel of { domains : int }

let default_engine = Batched

let engine_to_string = function
  | Sequential -> "sequential"
  | Batched -> "batched"
  | Parallel { domains } -> Printf.sprintf "parallel:%d" domains

(* Snapshot cadence for durable sessions: write at most every
   [every_queries] hardware queries AND at least every [every_seconds]
   seconds of wall clock (whichever trips first).

   A snapshot write that fails typed (Atomic_file.Write_error, or an
   injected crash) must degrade the session, never kill the learn — the
   snapshot is an optimisation of the failure path, and aborting hours of
   hardware queries because the *backup* could not be written inverts its
   purpose.  [on_degraded] observes the failure; [spill] names a fallback
   path (ideally another filesystem) tried before giving up on this
   cadence tick. *)
type snapshot_policy = {
  path : string;
  every_queries : int;
  every_seconds : float;
  spill : string option;
  on_degraded : (string -> unit) option;
}

let snapshot_policy ?(every_queries = 500) ?(every_seconds = 30.) ?spill
    ?on_degraded path =
  if every_queries < 1 then
    invalid_arg "Learn.snapshot_policy: every_queries must be >= 1";
  if every_seconds <= 0. then
    invalid_arg "Learn.snapshot_policy: every_seconds must be > 0";
  { path; every_queries; every_seconds; spill; on_degraded }

(* The supervisor's failure taxonomy.  Everything a learning run can die
   of maps onto one of these; anything else is a programming error and
   propagates as the raw exception. *)
type failure =
  | Transient of string
      (* noise-induced: Polca.Non_deterministic / Moracle.Inconsistent;
         a retry (with escalated voting) can succeed *)
  | Diverged of Cq_learner.Lstar.divergence (* the table never stabilised *)
  | Budget_exhausted of string (* wall-clock deadline or query budget *)
  | Worker_lost of string (* a pooled task failed every retry *)
  | Invalid of string
      (* the learned automaton violates the policy axioms (the ~validate
         gate); like Transient, a retry with escalated voting can succeed *)

let pp_failure ppf = function
  | Transient m -> Fmt.pf ppf "transient: %s" m
  | Diverged d -> Fmt.pf ppf "diverged: %a" Cq_learner.Lstar.pp_divergence d
  | Budget_exhausted m -> Fmt.pf ppf "budget exhausted: %s" m
  | Worker_lost m -> Fmt.pf ppf "worker lost: %s" m
  | Invalid m -> Fmt.pf ppf "invalid automaton: %s" m

(* Distinct non-zero exit codes, so scripted campaigns can branch on the
   failure class without parsing stderr. *)
let failure_exit_code = function
  | Transient _ -> 10
  | Diverged _ -> 11
  | Budget_exhausted _ -> 12
  | Worker_lost _ -> 13
  | Invalid _ -> 14

exception Out_of_budget of string
(* raised inside the oracle stack when the deadline or query budget trips;
   classified as [Budget_exhausted] by [run] *)

exception Invalid_automaton of string
(* raised by the post-learning validation gate ([~validate]) when the
   learned machine violates the policy axioms; classified as [Invalid] *)

type report = {
  machine : Cq_policy.Types.output Cq_automata.Mealy.t;
  states : int;
  seconds : float;
  rounds : int; (* equivalence queries issued *)
  suffixes : int; (* distinguishing suffixes added by Rivest–Schapire *)
  member_queries : int; (* membership queries reaching Polca *)
  member_symbols : int;
  cache_queries : int; (* block-trace queries reaching the cache oracle *)
  cache_accesses : int; (* total block accesses of those queries *)
  cache_batches : int; (* query batches reaching the cache oracle *)
  accesses_saved : int; (* block accesses avoided by prefix sharing *)
  memo_overflows : int; (* times the bounded query memo was cleared *)
  row_cache_overflows : int; (* times the bounded L* row cache was cleared *)
  domains : int; (* worker domains used by the equivalence oracle *)
  worker_restarts : int; (* pooled worker contexts poisoned and rebuilt *)
  identified : string list; (* known policies equivalent to the result *)
  quotient : Cq_learner.Quotient.stats option;
      (* symmetry-quotient merge statistics (state collapse, alias count,
         verification queries), when requested ([~quotient]) *)
  (* Noise-layer accounting (0 for quiet software oracles): *)
  timed_loads : int; (* physical timed loads, incl. vote re-measurements *)
  vote_runs : int; (* extra executions spent on majority voting *)
  transient_flips : int; (* Non_deterministic words absorbed by retry *)
  retry_attempts : int; (* word re-executions the retry layer issued *)
  validation : Cq_analysis.Automaton_check.report option;
      (* the post-learning model-checker verdict, when [~validate] ran
         (always a passing report here: violations abort the run) *)
  metrics : Cq_util.Metrics.t;
      (* the run's full metrics registry; the scalar fields above are
         views over it (frozen at completion) *)
}

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>states: %d@,time: %a@,equivalence rounds: %d@,suffixes added: \
     %d@,membership queries: %d (%d symbols)@,cache queries: %d (%d block \
     accesses)@,cache batches: %d (%d accesses saved)@,domains: \
     %d@,identified as: %s@]"
    r.states Cq_util.Clock.pp_duration r.seconds r.rounds r.suffixes
    r.member_queries r.member_symbols r.cache_queries r.cache_accesses
    r.cache_batches r.accesses_saved r.domains
    (match r.identified with [] -> "(unknown policy)" | l -> String.concat ", " l);
  (match r.quotient with
  | Some q -> Fmt.pf ppf "@,quotient: %a" Cq_learner.Quotient.pp q
  | None -> ());
  if r.vote_runs > 0 || r.retry_attempts > 0 || r.timed_loads > 0 then
    Fmt.pf ppf
      "@,timed loads: %d@,vote re-runs: %d@,retries: %d (%d transient flips \
       absorbed)"
      r.timed_loads r.vote_runs r.retry_attempts r.transient_flips;
  if r.worker_restarts > 0 then
    Fmt.pf ppf "@,worker restarts: %d" r.worker_restarts

(* What a supervised run salvaged when it could not complete: the failure
   class, the last hypothesis submitted to the equivalence oracle, and the
   snapshot a follow-up run can resume from. *)
type partial = {
  failure : failure;
  hypothesis : Cq_policy.Types.output Cq_automata.Mealy.t option;
  snapshot : string option;
  member_queries : int;
  seconds : float;
}

type outcome = Complete of report | Partial of partial

let default_meta () = Session.make_meta ~queries:0 ()

(* Learn the replacement policy behind a cache oracle.  [learn_core] is
   the one implementation; [learn_from_cache] re-raises the original
   exception on failure (the historical API), [run] classifies it into
   the failure taxonomy and returns a [Partial] instead. *)
let learn_core ?(equivalence = default_equivalence)
    ?(engine = default_engine) ?cache_factory ?(check_hits = true)
    ?(memoize = true) ?max_memo_entries ?max_row_cache
    ?(max_states = 1_000_000) ?(identify = true) ?(validate = false)
    ?(quotient = false)
    ?(retries = 0) ?on_retry ?device_stats ?metrics ?snapshot ?resume
    ?snapshot_meta ?(deadline = Cq_util.Clock.no_deadline) ?query_budget
    ?probe cache =
  (* One registry for the whole run: the learn-level oracle wrappers
     ("oracle.", "member.", "pool.", "learn." prefixes) all register here.
     Callers pass the same registry to Backend/Frontend.create so the
     device layer's "backend."/"frontend." series land alongside. *)
  let registry =
    match metrics with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let snapshot_write_h =
    Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 registry
      "learn.snapshot_write_seconds"
  and snapshot_replay_h =
    Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 registry
      "learn.snapshot_replay_seconds"
  in
  (* [device_stats]: the device layer's own stats record (the CacheQuery
     frontend's), whose voting/timed-load counters are invisible to the
     wrappers below; its deltas over the learning run are folded into the
     report. *)
  let dev_snapshot () =
    match device_stats with
    | None -> (0, 0)
    | Some d ->
        ( Cq_util.Metrics.value d.Cq_cache.Oracle.timed_loads,
          Cq_util.Metrics.value d.Cq_cache.Oracle.vote_runs )
  in
  let dev_loads0, dev_votes0 = dev_snapshot () in
  let t0 = Cq_util.Clock.mono () in
  (* Resume: load the snapshot up front so a damaged file fails fast,
     before any hardware traffic. *)
  let resumed : Cq_policy.Types.output Session.snapshot option =
    Option.map
      (fun path ->
        Cq_util.Trace.with_span ~cat:"learn" "learn.resume.load" @@ fun () ->
        let snap, seconds =
          Cq_util.Clock.time (fun () -> Session.load ~path)
        in
        Cq_util.Metrics.observe snapshot_replay_h seconds;
        snap)
      resume
  in
  let pool_stats = Cq_util.Pool.fresh_stats ~registry () in
  let batch_probes = match engine with Sequential -> false | _ -> true in
  let cache =
    match engine with
    | Sequential -> Cq_cache.Oracle.sequential cache
    | Batched | Parallel _ -> cache
  in
  let cache_stats = Cq_cache.Oracle.fresh_stats ~registry () in
  let cache = Cq_cache.Oracle.counting cache_stats cache in
  let cache =
    if memoize then
      Cq_cache.Oracle.memoized ~stats:cache_stats ?max_entries:max_memo_entries
        cache
    else cache
  in
  let polca =
    Polca.create ~check_hits ~batch_probes ~retries ?backoff:on_retry
      ~stats:cache_stats cache
  in
  let mstats = Cq_learner.Moracle.fresh_stats ~registry () in
  let cached_oracle, handle =
    Polca.moracle polca
    |> Cq_learner.Moracle.counting mstats
    |> Cq_learner.Moracle.cached_session ~stats:mstats ~conflict_retries:retries
  in
  (* Preload the prefix trie from the snapshot: every query the crashed
     run ever answered is now served locally, so the deterministic learner
     replays to the crash point at zero hardware cost and then continues —
     reaching the identical automaton a crash-free run would have. *)
  (match resumed with
  | Some snap ->
      let (), seconds =
        Cq_util.Clock.time (fun () ->
            handle.Cq_learner.Moracle.preload snap.Session.knowledge)
      in
      Cq_util.Metrics.observe snapshot_replay_h seconds
  | None -> ());
  let seed_rows =
    Option.bind resumed (fun snap ->
        Option.map
          (fun t -> t.Cq_learner.Lstar.rows)
          snap.Session.table)
  in
  (* Durability and supervision hooks around the cached oracle: [guard]
     runs before each top-level query (crash probe, deadline, budget);
     [maybe_snapshot] after it, when the trie is consistent.  Queries
     served by the trie never reach the hardware, so [mstats.queries] —
     the budget currency — only counts real traffic. *)
  let table_getter = ref None in
  let last_hypothesis = ref None in
  let snapshot_path_written = ref None in
  let last_snap_queries = ref 0 in
  let last_snap_time = ref t0 in
  let hw_queries () = Cq_util.Metrics.value mstats.Cq_learner.Moracle.queries in
  let write_snapshot () =
    match snapshot with
    | None -> ()
    | Some p ->
        (* The span and [learn.snapshot_write_seconds] both cover the
           whole capture (trie export, table), encode and write, so
           together they are what snapshotting adds to a learn. *)
        Cq_util.Trace.with_span ~cat:"learn" "learn.snapshot.write"
        @@ fun () ->
        let t_snap = Cq_util.Clock.mono () in
        let meta =
          let m =
            match snapshot_meta with
            | Some f -> f ()
            | None -> default_meta ()
          in
          { m with Session.queries = hw_queries () }
        in
        let snap =
          {
            Session.meta;
            knowledge = handle.Cq_learner.Moracle.export ();
            table = Option.map (fun g -> g ()) !table_getter;
          }
        in
        let save path =
          Session.save ~path snap;
          snapshot_path_written := Some path
        in
        (* Bump the cadence trackers before attempting the write: a dead
           disk must not turn every subsequent query into a write
           attempt. *)
        last_snap_queries := hw_queries ();
        last_snap_time := Cq_util.Clock.mono ();
        (* A snapshot failure degrades the session, it never kills the
           learn: notify the observer, reroute to the spill path, carry
           on.  Only the typed shapes are absorbed — anything else is a
           programming error and propagates. *)
        (try save p.path
         with
        | ( Cq_util.Atomic_file.Write_error _ | Cq_util.Faults.Injected _ ) as e
        ->
          (match p.on_degraded with
          | Some f -> ( try f (Printexc.to_string e) with _ -> ())
          | None -> ());
          (match p.spill with
          | None -> ()
          | Some sp -> (
              try save sp
              with
              | Cq_util.Atomic_file.Write_error _ | Cq_util.Faults.Injected _
              ->
                ())));
        Cq_util.Metrics.observe snapshot_write_h
          (Cq_util.Clock.mono () -. t_snap)
  in
  let guard () =
    (match probe with
    | Some f -> f (hw_queries ())
    | None -> ());
    if Cq_util.Clock.expired deadline then
      raise
        (Out_of_budget
           (Printf.sprintf "wall-clock deadline exceeded after %d hardware \
                            queries"
              (hw_queries ())));
    match query_budget with
    | Some b when hw_queries () >= b ->
        raise
          (Out_of_budget (Printf.sprintf "query budget of %d exhausted" b))
    | _ -> ()
  in
  let maybe_snapshot () =
    match snapshot with
    | None -> ()
    | Some p ->
        if
          hw_queries () - !last_snap_queries >= p.every_queries
          || Cq_util.Clock.mono () -. !last_snap_time >= p.every_seconds
        then write_snapshot ()
  in
  let guarded oracle =
    {
      oracle with
      Cq_learner.Moracle.query =
        (fun w ->
          guard ();
          let r = oracle.Cq_learner.Moracle.query w in
          maybe_snapshot ();
          r);
      query_batch =
        (fun ws ->
          guard ();
          let r = oracle.Cq_learner.Moracle.query_batch ws in
          maybe_snapshot ();
          r);
    }
  in
  let domains =
    match engine with Parallel { domains } -> max 1 domains | _ -> 1
  in
  (* A worker's private oracle stack: its own cache (from the factory), its
     own memo and prefix cache — no mutable state shared across domains.
     Queries are independent restarts from the reset state, so a fresh
     stack answers exactly like the main one. *)
  let worker_oracle () =
    match cache_factory with
    | None -> invalid_arg "Learn: Parallel engine requires ~cache_factory"
    | Some factory ->
        let cache = factory () in
        let cache =
          if memoize then
            Cq_cache.Oracle.memoized ?max_entries:max_memo_entries cache
          else cache
        in
        Polca.moracle (Polca.create ~check_hits ~batch_probes:true cache)
        |> Cq_learner.Moracle.cached
  in
  (* The latest hypothesis' rep/alias decomposition, published by the
     quotient learner so the conformance suite can focus on representative
     states (aliased states only get a frame spot-check). *)
  let qview = ref None in
  let make_find_cex oracle =
    let mk_pool () =
      if Option.is_none cache_factory then
        invalid_arg "Learn: Parallel engine requires ~cache_factory";
      Cq_util.Pool.create ~size:domains ~stats:pool_stats
        ~factory:worker_oracle ()
    in
    let quotient_conformance = quotient && Polca.assoc polca >= 2 in
    let find_cex =
      match (equivalence, engine) with
      | Random_walk { max_tests; max_len; seed }, _ ->
          Cq_learner.Equivalence.random_walk
            ~prng:(Cq_util.Prng.of_int seed)
            ~max_tests ~max_len oracle
      | (W_method depth | Wp_method depth), _ when quotient_conformance -> (
          let assoc = Polca.assoc polca in
          let sweep = List.init assoc (fun _ -> assoc) in
          let is_rep s =
            match !qview with
            | None -> true
            | Some v ->
                s < Array.length v.Cq_learner.Lstar.is_rep_state
                && v.Cq_learner.Lstar.is_rep_state.(s)
          in
          match engine with
          | Parallel _ when domains > 1 ->
              Cq_learner.Equivalence.pooled
                ~suite:
                  (Cq_learner.Equivalence.wp_quotient_suite ~depth ~is_rep
                     ~sweep)
                (mk_pool ())
          | _ ->
              Cq_learner.Equivalence.wp_quotient ~depth ~is_rep ~sweep oracle)
      | W_method depth, Parallel _ when domains > 1 ->
          Cq_learner.Equivalence.w_method_pooled ~depth (mk_pool ())
      | Wp_method depth, Parallel _ when domains > 1 ->
          Cq_learner.Equivalence.wp_method_pooled ~depth (mk_pool ())
      | W_method depth, _ -> Cq_learner.Equivalence.w_method ~depth oracle
      | Wp_method depth, _ -> Cq_learner.Equivalence.wp_method ~depth oracle
    in
    (* Counterexample verification (noise hardening): a transient measurement
       flip during conformance testing fabricates a counterexample the
       learner cannot process (no genuine distinguishing suffix exists).
       Re-execute the candidate fresh — repairing the prefix cache in
       passing — and only hand the learner a disagreement that
       reproduces; a spurious one costs a bounded re-run of the (mostly
       cached) suite. *)
    let refresh_word = handle.Cq_learner.Moracle.refresh in
    if retries = 0 then find_cex
    else fun h ->
      let rec verified budget =
        match find_cex h with
        | None -> None
        | Some w ->
            if refresh_word w <> Cq_automata.Mealy.run h w then Some w
            else if budget = 0 then None
            else verified (budget - 1)
      in
      verified retries
  in
  let finish ?validation (result : _ Cq_learner.Lstar.result) seconds =
    let v = Cq_util.Metrics.value in
    {
      machine = result.machine;
      states = Cq_automata.Mealy.n_states result.machine;
      seconds;
      rounds = result.rounds;
      suffixes = result.suffixes_added;
      member_queries = v mstats.Cq_learner.Moracle.queries;
      member_symbols = v mstats.Cq_learner.Moracle.symbols;
      cache_queries = v cache_stats.Cq_cache.Oracle.queries;
      cache_accesses = v cache_stats.Cq_cache.Oracle.block_accesses;
      cache_batches = v cache_stats.Cq_cache.Oracle.batches;
      accesses_saved = v cache_stats.Cq_cache.Oracle.accesses_saved;
      memo_overflows = v cache_stats.Cq_cache.Oracle.memo_overflows;
      row_cache_overflows = result.row_cache_overflows;
      domains;
      worker_restarts = v pool_stats.Cq_util.Pool.worker_restarts;
      identified =
        (if identify then Cq_policy.Zoo.identify result.machine else []);
      quotient = result.Cq_learner.Lstar.quotient;
      timed_loads =
        (let dev_loads, _ = dev_snapshot () in
         v cache_stats.Cq_cache.Oracle.timed_loads + (dev_loads - dev_loads0));
      vote_runs =
        (let _, dev_votes = dev_snapshot () in
         v cache_stats.Cq_cache.Oracle.vote_runs + (dev_votes - dev_votes0));
      transient_flips =
        v cache_stats.Cq_cache.Oracle.transient_flips
        + v mstats.Cq_learner.Moracle.conflicts;
      retry_attempts = v cache_stats.Cq_cache.Oracle.retry_attempts;
      validation;
      metrics = registry;
    }
  in
  match
    Cq_util.Clock.time (fun () ->
        Cq_util.Trace.with_span ~cat:"learn" "learn.run" @@ fun () ->
        let oracle = guarded cached_oracle in
        let find_cex = make_find_cex oracle in
        (* Equivalence queries are rare (one per hypothesis), so the span
           wrapper costs nothing measurable even when tracing is off. *)
        let find_cex h =
          Cq_util.Trace.with_span ~cat:"learn" "learn.equivalence" (fun () ->
              find_cex h)
        in
        (* Quotient mode hands the learner the line-relabeling action: the
           observation table merges states that are verified relabelings
           of each other and the hypothesis is the unfolding of the
           quotient machine — see Lstar/Quotient.  The published view
           focuses the conformance suite above on representative
           states. *)
        let qaction =
          if quotient && Polca.assoc polca >= 2 then
            Some (Cq_learner.Quotient.policy_action ~assoc:(Polca.assoc polca))
          else None
        in
        Cq_learner.Lstar.learn ~max_states ?max_row_cache ?seed_rows
          ~expose_table:(fun g -> table_getter := Some g)
          ~on_hypothesis:(fun h -> last_hypothesis := Some h)
          ?quotient:qaction
          ~on_quotient_view:(fun v -> qview := Some v)
          ~oracle ~find_cex ())
  with
  | result, seconds -> (
      (* Post-learning validation gate: model-check the learned machine
         against the policy axioms (hit consistency, reachability,
         minimality, line-permutation symmetry) before reporting success.
         Wp conformance against the producing oracle cannot catch a
         systematic measurement artefact; the axioms can. *)
      let validation =
        if validate && Cq_automata.Mealy.n_inputs result.machine >= 2 then
          let assoc = Cq_automata.Mealy.n_inputs result.machine - 1 in
          (* A quotient-learned machine carries the merge witness — state
             [s] behaves as state [s0] conjugated by a permutation — so
             the checker validates symmetry with anchored product walks
             instead of the brute-force relabeled-copy search. *)
          let symmetry_witness =
            match result.Cq_learner.Lstar.quotient with
            | Some st when st.Cq_learner.Quotient.witness <> [] ->
                Some st.Cq_learner.Quotient.witness
            | _ -> None
          in
          Some
            (Cq_analysis.Automaton_check.check ~registry ~assoc
               ?symmetry_witness result.machine)
        else None
      in
      match validation with
      | Some v when not (Cq_analysis.Automaton_check.ok v) ->
          let msg = Cq_analysis.Automaton_check.report_to_string v in
          (try write_snapshot () with _ -> ());
          Error
            ( Invalid_automaton msg,
              {
                failure = Invalid msg;
                hypothesis = Some result.machine;
                snapshot = !snapshot_path_written;
                member_queries = hw_queries ();
                seconds;
              } )
      | validation -> Ok (finish ?validation result seconds))
  | exception e -> (
      let seconds = Cq_util.Clock.mono () -. t0 in
      (* Preserve whatever was learned: the failure path writes a final
         snapshot, so a follow-up run resumes instead of starting over.
         A failing write must not mask the original failure. *)
      (try write_snapshot () with _ -> ());
      let failure =
        match e with
        | Cq_learner.Lstar.Diverged d -> Some (Diverged d)
        | Polca.Non_deterministic m ->
            (* Structured diagnosis: if the hypothesis the learner was
               working from already violates the policy axioms, the
               nondeterminism is structural (interference, a bad reset
               placement), not a transient measurement flip — say so. *)
            let diagnosis =
              match !last_hypothesis with
              | Some h when Cq_automata.Mealy.n_inputs h >= 2 -> (
                  let assoc = Cq_automata.Mealy.n_inputs h - 1 in
                  match Cq_analysis.Automaton_check.diagnose ~assoc h with
                  | Some d ->
                      "; current hypothesis already violates policy axioms \
                       (" ^ d ^ ")"
                  | None -> "")
              | _ -> ""
            in
            Some (Transient ("non-deterministic responses: " ^ m ^ diagnosis))
        | Cq_learner.Moracle.Inconsistent m ->
            Some (Transient ("non-deterministic responses: " ^ m))
        | Cq_util.Pool.Worker_lost m -> Some (Worker_lost m)
        | Out_of_budget m -> Some (Budget_exhausted m)
        | _ -> None
      in
      match failure with
      | None -> raise e (* outside the taxonomy: a programming error *)
      | Some failure ->
          Error
            ( e,
              {
                failure;
                hypothesis = !last_hypothesis;
                snapshot = !snapshot_path_written;
                member_queries = hw_queries ();
                seconds;
              } ))

let learn_from_cache ?equivalence ?engine ?cache_factory ?check_hits ?memoize
    ?max_memo_entries ?max_row_cache ?max_states ?identify ?validate ?quotient ?retries ?on_retry ?device_stats
    ?metrics ?snapshot ?resume ?snapshot_meta ?deadline ?query_budget ?probe
    cache =
  match
    learn_core ?equivalence ?engine ?cache_factory ?check_hits ?memoize
      ?max_memo_entries ?max_row_cache ?max_states ?identify ?validate
      ?quotient ?retries ?on_retry
      ?device_stats ?metrics ?snapshot ?resume ?snapshot_meta ?deadline
      ?query_budget ?probe cache
  with
  | Ok report -> report
  | Error (e, _) -> raise e

let run ?equivalence ?engine ?cache_factory ?check_hits ?memoize
    ?max_memo_entries ?max_row_cache ?max_states ?identify ?validate ?quotient ?retries ?on_retry ?device_stats
    ?metrics ?snapshot ?resume ?snapshot_meta ?deadline ?query_budget ?probe
    cache =
  match
    learn_core ?equivalence ?engine ?cache_factory ?check_hits ?memoize
      ?max_memo_entries ?max_row_cache ?max_states ?identify ?validate
      ?quotient ?retries ?on_retry
      ?device_stats ?metrics ?snapshot ?resume ?snapshot_meta ?deadline
      ?query_budget ?probe cache
  with
  | Ok report -> Complete report
  | Error (_, partial) -> Partial partial

(* Case study §6: learn a policy from a software-simulated cache.  The
   simulated oracle is trivially reproducible, so the Parallel engine's
   per-domain factory comes for free. *)
let learn_simulated ?equivalence ?engine ?check_hits ?max_memo_entries
    ?max_row_cache ?max_states ?identify ?validate ?quotient ?metrics ?snapshot ?resume ?deadline ?query_budget
    ?probe policy =
  learn_from_cache ?equivalence ?engine
    ~cache_factory:(fun () -> Cq_cache.Oracle.of_policy policy)
    ?check_hits ?max_memo_entries ?max_row_cache ?max_states ?identify
    ?validate ?quotient ?metrics
    ?snapshot ?resume ?deadline ?query_budget ?probe
    (Cq_cache.Oracle.of_policy policy)

(* As [learn_simulated] but through the supervised [run] API. *)
let run_simulated ?equivalence ?engine ?check_hits ?max_memo_entries
    ?max_row_cache ?max_states ?identify ?validate ?quotient ?metrics ?snapshot ?resume ?deadline ?query_budget
    ?probe policy =
  run ?equivalence ?engine
    ~cache_factory:(fun () -> Cq_cache.Oracle.of_policy policy)
    ?check_hits ?max_memo_entries ?max_row_cache ?max_states ?identify
    ?validate ?quotient ?metrics
    ?snapshot ?resume ?deadline ?query_budget ?probe
    (Cq_cache.Oracle.of_policy policy)

(* Sanity check used in tests and experiments: the learned machine must be
   trace-equivalent to the (warm-started) ground-truth policy machine. *)
let verify_against report policy =
  Cq_automata.Mealy.equivalent report.machine (Cq_policy.Policy.to_mealy policy)
