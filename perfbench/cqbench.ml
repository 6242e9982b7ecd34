(* cqbench: the repository benchmark for the learning pipeline.

   One process runs one workload, checks its outputs and prints one JSON
   object as the last line of standard output:

     cqbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 measures the end-to-end metrics with nothing wrapped.
   --trace 1 first runs the workload with timing wrappers around the
   public entry points of each layer (the stack is rebuilt from public
   calls; nothing inside lib/ is touched), then once untraced.  The
   traced pass must reproduce the untraced pass's deterministic counts
   exactly, or the run aborts without a result.  The daemon is not
   wrapped: its traced run repeats the daemon's work locally instead.
   --smoke runs the same code paths on tiny targets (the self-test). *)

module M = Cq_hwsim.Machine
module BE = Cq_cachequery.Backend
module FE = Cq_cachequery.Frontend
module Oracle = Cq_cache.Oracle
module Learn = Cq_core.Learn
module Mealy = Cq_automata.Mealy
module Policy = Cq_policy.Policy
module Types = Cq_policy.Types
module Zoo = Cq_policy.Zoo
module Json = Cq_service.Json
module Client = Cq_service.Client
module Server = Cq_service.Server
module Metrics = Cq_util.Metrics
module Trace = Cq_workload.Trace
module Replay = Cq_workload.Replay
module Opt = Cq_workload.Opt

let now = Cq_util.Clock.mono

(* ---------- metric tables (BENCHMARK.json lists the same) ---------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("learn_s", "s");
    ("member_queries", "count");
    ("alloc_mwords", "Mwords");
    ("peak_heap_mb", "MB");
  ]

let device_metrics prefix ops =
  List.concat_map
    (fun op ->
      List.map
        (fun (field, unit) -> (Printf.sprintf "%s.%s_%s" prefix op field, unit))
        [ ("s", "s"); ("calls", "count"); ("mwords", "Mwords") ])
    ops

let per_layer =
  [
    ("hwsim.loads", "count");
    ("backend.timed_loads", "count");
    ("backend.untimed_loads", "count");
    ("backend.filter_loads", "count");
    ("backend.timed_loads.calibrate", "count");
    ("backend.timed_loads.reset", "count");
    ("backend.timed_loads.learn", "count");
    ("backend.words_per_timed_load", "words");
    ("backend.calibrate_s", "s");
    ("reset.find_s", "s");
  ]
  @ device_metrics "frontend" [ "access"; "checkpoint"; "reset"; "batch" ]
  @ [
      ("frontend.checkpoint_reset_share", "ratio");
      ("frontend.memo_hits", "count");
      ("frontend.vote_runs", "count");
      ("frontend.vote_ratio", "ratio");
      ("polca.retry_attempts", "count");
      ("polca.transient_flips", "count");
    ]
  @ device_metrics "cache" [ "access"; "checkpoint"; "reset" ]
  @ [
      ("learn.run_s", "s");
      ("learn.self_s", "s");
      ("learn.self_mwords", "Mwords");
      ("learn.device_share", "ratio");
      ("lstar.rounds", "count");
      ("lstar.member_queries", "count");
      ("lstar.member_symbols", "count");
      ("polca.cache_queries", "count");
      ("polca.cache_accesses", "count");
      ("polca.prefix_saved_ratio", "ratio");
      ("session.snapshot_writes", "count");
      ("session.snapshot_s", "s");
      ("session.snapshot_bytes", "bytes");
      ("session.snapshot_overhead_s", "s");
      ("service.learn_overhead_s", "s");
      ("service.replay_overhead_ms", "ms");
      ("replay_p50_ms", "ms");
      ("replay_tail_ms", "ms");
      ("replay_tail_pct", "%");
      ("replay_requests", "count");
      ("replay_maccess_s", "Maccess/s");
      ("workload.trace_ms", "ms");
      ("workload.replay_ms", "ms");
      ("workload.opt_ms", "ms");
      ("automata.compile_ms", "ms");
      ("client.retries", "count");
      ("service.errors", "count");
      ("trace.overhead_s", "s");
    ]

let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer)
  then invalid_arg ("unknown metric " ^ name);
  Hashtbl.replace values name v

let seti name n = set name (float_of_int n)

(* ---------- correctness accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "check failed: %s\n%!" what
  end

(* The traced pass measured a different program than the untraced one. *)
exception Diverged of string

let same what untraced traced =
  if untraced <> traced then
    raise
      (Diverged
         (Printf.sprintf "%s: untraced %d, traced %d" what untraced traced))

(* ---------- measurement ---------- *)

(* [f ()] with its wall seconds and minor words. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, Gc.minor_words () -. w0)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

(* The highest of these percentiles with at least ten samples beyond it. *)
let tail a =
  let n = Array.length a in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  match List.find_opt (fun p -> beyond p >= 10) [ 99.9; 99.; 95.; 90.; 75. ]
  with
  | Some p -> (p, percentile a p)
  | None -> (50., percentile a 50.)

(* Set-up takes microseconds, and on a shared 2-vCPU VM its speed was
   seen to drift by 2x over seconds.  So set-up runs once to warm up, then in batches
   of about 100 us for half a second, before and again after the timed
   operation; the median batch mean of both windows is reported. *)
let setup_samples f =
  let _, dt, _ = measure f in
  let batch = max 1 (int_of_float (1e-4 /. dt)) in
  let t0 = now () in
  let rec go acc =
    if now () -. t0 >= 0.5 then acc
    else
      let _, dt, _ =
        measure (fun () ->
            for _ = 1 to batch do
              ignore (Sys.opaque_identity (f ()))
            done)
      in
      go ((dt /. float_of_int batch) :: acc)
  in
  go []

(* Repeat the timed operation for [seconds]: another repetition starts only
   while the last one's duration still fits; there is always one. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go acc =
    let ((_, dt, _) as r) = f () in
    if now () -. t0 +. dt <= seconds then go (r :: acc) else List.rev (r :: acc)
  in
  go []

(* Report the repetitions' median time, and the first one's allocation
   (every repetition does the same work). *)
let emit_learn reps =
  set "learn_s" (median (List.map (fun (_, dt, _) -> dt) reps));
  let _, _, words = List.hd reps in
  set "alloc_mwords" (words /. 1e6)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---------- layer wrappers ---------- *)

type acc = { mutable calls : int; mutable secs : float; mutable words : float }

let acc () = { calls = 0; secs = 0.; words = 0. }

(* One call into a layer: its time and minor allocation. *)
let timed a f x =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f x in
  a.secs <- a.secs +. (now () -. t0);
  a.words <- a.words +. (Gc.minor_words () -. w0);
  a.calls <- a.calls + 1;
  r

(* The device behind a cache oracle: its session-mode primitives
   ([Batch.ops]) and its whole-query entry points. *)
type device = {
  access : acc;
  checkpoint : acc;
  restore : acc;
  reset : acc;
  batch : acc;
}

let device () =
  {
    access = acc ();
    checkpoint = acc ();
    restore = acc ();
    reset = acc ();
    batch = acc ();
  }

let device_secs d =
  d.access.secs +. d.checkpoint.secs +. d.restore.secs +. d.reset.secs
  +. d.batch.secs

let device_words d =
  d.access.words +. d.checkpoint.words +. d.restore.words +. d.reset.words
  +. d.batch.words

let wrap_oracle d (o : Oracle.t) =
  let ops =
    Option.map
      (fun (ops : _ Cq_cache.Batch.ops) ->
        {
          Cq_cache.Batch.reset = timed d.reset ops.reset;
          access = timed d.access ops.access;
          checkpoint =
            (fun () -> timed d.restore (timed d.checkpoint ops.checkpoint ()));
        })
      o.ops
  in
  {
    o with
    query = timed d.batch o.query;
    query_batch = timed d.batch o.query_batch;
    ops;
  }

(* A restore is charged to the checkpoint that made it. *)
let emit_device prefix d =
  let checkpoint =
    {
      calls = d.checkpoint.calls;
      secs = d.checkpoint.secs +. d.restore.secs;
      words = d.checkpoint.words +. d.restore.words;
    }
  in
  List.iter
    (fun (op, a) ->
      let name field = Printf.sprintf "%s.%s_%s" prefix op field in
      if List.mem_assoc (name "s") per_layer then begin
        set (name "s") a.secs;
        seti (name "calls") a.calls;
        set (name "mwords") (a.words /. 1e6)
      end)
    [
      ("access", d.access);
      ("checkpoint", checkpoint);
      ("reset", d.reset);
      ("batch", d.batch);
    ]

(* The learner-side view of a report. *)
let emit_learner (r : Learn.report) =
  seti "lstar.rounds" r.Learn.rounds;
  seti "lstar.member_queries" r.Learn.member_queries;
  seti "lstar.member_symbols" r.Learn.member_symbols;
  seti "polca.cache_queries" r.Learn.cache_queries;
  seti "polca.cache_accesses" r.Learn.cache_accesses;
  set "polca.prefix_saved_ratio"
    (float_of_int r.Learn.accesses_saved
    /. float_of_int (max 1 r.Learn.cache_accesses));
  seti "polca.retry_attempts" r.Learn.retry_attempts;
  seti "polca.transient_flips" r.Learn.transient_flips

let emit_run ~run_s ~run_words d =
  let dev = device_secs d in
  set "learn.run_s" run_s;
  set "learn.self_s" (run_s -. dev);
  set "learn.self_mwords" ((run_words -. device_words d) /. 1e6);
  set "learn.device_share" (dev /. run_s)

(* ---------- hw-l1, hw-l1-noisy ---------- *)

type hw = {
  model : Cq_hwsim.Cpu_model.t;
  noise : M.noise_config;
  voting : FE.voting option;
  exact_states : bool;
      (** gate on the minimal state count; under noise the gate is
          equivalence to the ground truth only *)
}

(* The L1 policy of the CPU models used. *)
let l1_policy = "PLRU"

let retries = 3

(* Hardware.learn_set's voting escalation on a Polca retry. *)
let escalate = function
  | FE.Fixed 1 -> FE.Adaptive { max = 3 }
  | FE.Fixed n -> FE.Adaptive { max = min 15 (n + 2) }
  | FE.Adaptive { max } -> FE.Adaptive { max = min 15 (max + 2) }

let target = { BE.level = Cq_hwsim.Cpu_model.L1; slice = 0; set = 0 }

(* The stack Hardware.learn_set builds, rebuilt from the same public
   calls with the frontend's oracle wrapped.  Sets the per-layer metrics;
   returns its wall time and the counts the untraced pass must match. *)
let hw_traced ~seed cfg machine =
  let loads0 = M.loads machine in
  let registry = Metrics.create () in
  let t0 = now () in
  let backend = BE.create ~metrics:registry machine target in
  let _, calibrate_s, _ = measure (fun () -> BE.calibrate backend) in
  let tl_calibrate = BE.timed_loads backend in
  let frontend =
    FE.create ~repetitions:1 ?voting:cfg.voting ~metrics:registry backend
  in
  let prng = Cq_util.Prng.of_int seed in
  let reset, reset_s, _ =
    measure (fun () ->
        Cq_core.Reset.find ~trials:24 ~deadline:Cq_util.Clock.no_deadline ~prng
          frontend)
  in
  if reset = None then raise (Diverged "traced pass found no reset sequence");
  let tl_reset = BE.timed_loads backend - tl_calibrate in
  let on_retry _ =
    FE.clear_memo frontend;
    FE.set_voting frontend (escalate (FE.voting frontend))
  in
  let d = device () in
  let oracle = wrap_oracle d (FE.oracle frontend) in
  let outcome, run_s, run_words =
    measure (fun () ->
        Learn.run ~check_hits:false ~memoize:false ~max_states:100_000 ~retries
          ~on_retry ~device_stats:(FE.stats frontend) ~metrics:registry
          ~deadline:Cq_util.Clock.no_deadline oracle)
  in
  let traced_s = now () -. t0 in
  let r =
    match outcome with
    | Learn.Complete r -> r
    | Learn.Partial p ->
        raise
          (Diverged
             (Fmt.str "traced learn: %a" Learn.pp_failure p.Learn.failure))
  in
  let timed_loads = BE.timed_loads backend in
  let loads = M.loads machine - loads0 in
  seti "hwsim.loads" loads;
  seti "backend.timed_loads" timed_loads;
  seti "backend.untimed_loads" (loads - timed_loads);
  seti "backend.filter_loads" (BE.filter_loads backend);
  seti "backend.timed_loads.calibrate" tl_calibrate;
  seti "backend.timed_loads.reset" tl_reset;
  seti "backend.timed_loads.learn" (timed_loads - tl_calibrate - tl_reset);
  set "backend.calibrate_s" calibrate_s;
  set "reset.find_s" reset_s;
  emit_device "frontend" d;
  set "frontend.checkpoint_reset_share"
    ((d.checkpoint.secs +. d.restore.secs +. d.reset.secs) /. device_secs d);
  let stats = FE.stats frontend in
  seti "frontend.memo_hits" (Metrics.value stats.Oracle.memo_hits);
  let vote_runs = Metrics.value stats.Oracle.vote_runs in
  seti "frontend.vote_runs" vote_runs;
  set "frontend.vote_ratio"
    (float_of_int vote_runs /. float_of_int timed_loads);
  emit_learner r;
  emit_run ~run_s ~run_words d;
  ( traced_s,
    [
      ("states", r.Learn.states);
      ("member queries", r.Learn.member_queries);
      ("timed loads", timed_loads);
      ("hwsim loads", loads);
    ] )

(* Every traced count must equal the untraced one. *)
let reproduce traced untraced =
  List.iter2 (fun (what, t) (_, u) -> same what u t) traced untraced

let run_hw ~seed ~seconds ~trace cfg =
  let create () =
    M.create ~seed:(Int64.of_int seed) ~noise:cfg.noise cfg.model
  in
  let setup = setup_samples create in
  (* The traced pass runs first, on a heap as fresh as an untraced run's. *)
  let traced = if trace then Some (hw_traced ~seed cfg (create ())) else None in
  let reference =
    Policy.to_mealy
      (Zoo.make_exn ~name:l1_policy
         ~assoc:cfg.model.Cq_hwsim.Cpu_model.l1.Cq_hwsim.Cpu_model.assoc)
  in
  let learn () =
    let machine = create () in
    let loads0 = M.loads machine in
    let run, dt, words =
      measure (fun () ->
          Cq_core.Hardware.learn_set ~seed ~check_hits:false ?voting:cfg.voting
            ~retries machine target.BE.level)
    in
    ((run, M.loads machine - loads0), dt, words)
  in
  let reps = if trace then [ learn () ] else repeat ~seconds learn in
  let report_of run =
    match run.Cq_core.Hardware.outcome with
    | Cq_core.Hardware.Learned { report; _ } -> Some report
    | _ -> None
  in
  List.iter
    (fun ((run, _), _, _) ->
      match report_of run with
      | Some report ->
          if cfg.exact_states then
            check
              (Printf.sprintf "learned %d states, expected %d"
                 report.Learn.states (Mealy.n_states reference))
              (report.Learn.states = Mealy.n_states reference);
          check "identified policy"
            (List.mem l1_policy report.Learn.identified);
          check "equivalent to the ground-truth machine"
            (Mealy.equivalent report.Learn.machine reference)
      | None ->
          check
            (Fmt.str "learn completes (%a)" Cq_core.Hardware.pp_outcome
               run.Cq_core.Hardware.outcome)
            false)
    reps;
  emit_learn reps;
  set "peak_heap_mb" (peak_heap_mb ());
  set "setup_s" (median (setup @ setup_samples create));
  let (run, hw_loads), untraced_s, untraced_words = List.hd reps in
  match report_of run with
  | None -> seti "member_queries" 0
  | Some report ->
      seti "member_queries" report.Learn.member_queries;
      Option.iter
        (fun (traced_s, counts) ->
          let timed_loads = run.Cq_core.Hardware.timed_loads in
          reproduce counts
            [
              ("states", report.Learn.states);
              ("member queries", report.Learn.member_queries);
              ("timed loads", timed_loads);
              ("hwsim loads", hw_loads);
            ];
          set "backend.words_per_timed_load"
            (untraced_words /. float_of_int timed_loads);
          set "trace.overhead_s" (traced_s -. untraced_s))
        traced

(* ---------- sim-lru6 ---------- *)

let run_sim ~seconds ~trace ~policy ~assoc =
  let make () = Zoo.make_exn ~name:policy ~assoc in
  let setup_once () = Oracle.of_policy (make ()) in
  let setup = setup_samples setup_once in
  let p = make () in
  (* learn_simulated's oracle, wrapped; first, on a fresh heap. *)
  let traced =
    if not trace then None
    else begin
      let d = device () in
      let oracle = wrap_oracle d (Oracle.of_policy p) in
      let r, run_s, run_words =
        measure (fun () -> Learn.learn_from_cache ~identify:false oracle)
      in
      emit_device "cache" d;
      emit_learner r;
      emit_run ~run_s ~run_words d;
      Some
        ( run_s,
          [
            ("states", r.Learn.states);
            ("member queries", r.Learn.member_queries);
            ("cache accesses", r.Learn.cache_accesses);
          ] )
    end
  in
  let reference = Policy.to_mealy p in
  let learn () = measure (fun () -> Learn.learn_simulated ~identify:false p) in
  let reps = if trace then [ learn () ] else repeat ~seconds learn in
  List.iter
    (fun (r, _, _) ->
      check "learned state count" (r.Learn.states = Mealy.n_states reference);
      check "verified against the policy" (Learn.verify_against r p))
    reps;
  emit_learn reps;
  set "peak_heap_mb" (peak_heap_mb ());
  set "setup_s" (median (setup @ setup_samples setup_once));
  let report, untraced_s, _ = List.hd reps in
  seti "member_queries" report.Learn.member_queries;
  Option.iter
    (fun (traced_s, counts) ->
      reproduce counts
        [
          ("states", report.Learn.states);
          ("member queries", report.Learn.member_queries);
          ("cache accesses", report.Learn.cache_accesses);
        ];
      set "trace.overhead_s" (traced_s -. untraced_s))
    traced

(* ---------- daemon-plru8 ---------- *)

let state_root = ".perfbench-state"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir path =
  try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Trace [i] of the replay sequence: seeded zipf (mostly hits), the
   anti-LRU loop (misses) and uniform traces, alternating the learned
   machine and the policy as the replay source. *)
let replay_request ~seed ~len i =
  let s = (seed * 1000) + i in
  let spec =
    match i mod 3 with
    | 0 -> Printf.sprintf "zipf:n=32,alpha=1.2,len=%d,seed=%d" len s
    | 1 -> Printf.sprintf "anti:len=%d" len
    | _ -> Printf.sprintf "uniform:n=16,len=%d,seed=%d" len s
  in
  (spec, if i / 3 mod 2 = 0 then "learned" else "policy")

let dot_of ~assoc m =
  Mealy.to_dot ~input_label:(Types.input_label ~assoc)
    ~output_label:Types.output_label m

let server_counter server name =
  match List.assoc_opt name (Metrics.snapshot (Server.metrics server)) with
  | Some (Metrics.Counter_value n) -> n
  | _ -> 0

let run_daemon ~seed ~seconds ~trace ~policy ~assoc ~requests ~len =
  mkdir state_root;
  let dir = Filename.concat state_root (string_of_int (Unix.getpid ())) in
  mkdir dir;
  let servers = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter Server.stop !servers;
      rm_rf dir;
      try Unix.rmdir state_root with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Set-up: daemon start, client connect, session create. *)
  let start i =
    let sub = Filename.concat dir (string_of_int i) in
    mkdir sub;
    let socket = Filename.concat sub "d.sock" in
    let server =
      Server.create (Server.config ~workers:1 ~state_dir:sub socket)
    in
    Server.start server;
    servers := [ server ];
    let c = Client.connect_unix ~retry:(Client.retry ~seed ()) socket in
    let sid = Client.create_sim c ~policy ~assoc () in
    (server, c, sid)
  in
  (* Set up a few times only: stopping a daemon takes longer
     than starting it.  Every daemon but the last is stopped again. *)
  let times =
    List.init 6 (fun i ->
        let (server, c, _), dt, _ = measure (fun () -> start i) in
        Client.close c;
        Server.stop server;
        dt)
  in
  let (server, c, sid), dt, _ = measure (fun () -> start 6) in
  set "setup_s" (median (dt :: List.tl times));
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let p = Zoo.make_exn ~name:policy ~assoc in
  (* Learn: from learn_start until learn_wait returns. *)
  let first = ref true in
  let reps =
    repeat ~seconds (fun () ->
        let sid =
          if !first then sid else Client.create_sim c ~policy ~assoc ()
        in
        first := false;
        let status, dt, words =
          measure (fun () ->
              Client.learn_start c sid;
              Client.learn_wait c ~timeout_s:170. sid)
        in
        ((sid, status), dt, words))
  in
  let local, local_s, _ =
    measure (fun () -> Learn.learn_simulated ~identify:false p)
  in
  let local_dot = dot_of ~assoc local.Learn.machine in
  List.iter
    (fun ((sid, status), _, _) ->
      check "daemon learn done" (Json.mem_str "state" status = Some "done");
      check "daemon states match a local learn"
        (Json.mem_int "states" status = Some local.Learn.states);
      check "daemon member queries match a local learn"
        (Json.mem_int "member_queries" status
        = Some local.Learn.member_queries);
      check "daemon machine matches a local learn"
        (Json.mem_str "dot" (Client.result c ~dot:true sid) = Some local_dot))
    reps;
  emit_learn reps;
  seti "member_queries" local.Learn.member_queries;
  (* The daemon's replay work done locally, in milliseconds:
     (trace, compile, replay, opt). *)
  let local_replay spec source =
    let ms f =
      let r, dt, _ = measure f in
      (r, dt *. 1e3)
    in
    let tr, trace_ms = ms (fun () -> Trace.of_spec_exn ~assoc spec) in
    let blocks = tr.Trace.blocks in
    let compile_ms, replay_ms =
      if source = "learned" then
        let m, compile_ms = ms (fun () -> Mealy.compile local.Learn.machine) in
        (compile_ms, snd (ms (fun () -> Replay.compiled m blocks)))
      else
        ( 0.,
          snd
            (ms (fun () ->
                 Replay.policy (Zoo.make_exn ~name:policy ~assoc) blocks)) )
    in
    let _, opt_ms = ms (fun () -> Opt.replay ~assoc blocks) in
    (trace_ms, compile_ms, replay_ms, opt_ms)
  in
  (* Replay: a closed loop of [requests] requests.  A traced run repeats
     each request's work locally right after it, so that both see the
     same machine; the request's overhead is the difference. *)
  let replies =
    List.init requests (fun i ->
        let spec, source = replay_request ~seed ~len i in
        let doc, dt, _ =
          measure (fun () -> Client.replay c ~source ~spec sid)
        in
        let parts = if trace then Some (local_replay spec source) else None in
        (spec, source, doc, dt, parts))
  in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun (spec, source, doc, _, _) ->
      let hits, opt_hits =
        match Hashtbl.find_opt expected spec with
        | Some e -> e
        | None ->
            let blocks = (Trace.of_spec_exn ~assoc spec).Trace.blocks in
            let e =
              ( (Replay.policy p blocks).Replay.hits,
                (Opt.replay ~assoc blocks).Replay.hits )
            in
            Hashtbl.replace expected spec e;
            e
      in
      check ("replay source " ^ spec) (Json.mem_str "source" doc = Some source);
      check ("replay hits " ^ spec) (Json.mem_int "hits" doc = Some hits);
      check ("replay opt_hits " ^ spec)
        (Json.mem_int "opt_hits" doc = Some opt_hits))
    replies;
  set "peak_heap_mb" (peak_heap_mb ());
  if trace then begin
    let lat =
      Array.of_list (List.map (fun (_, _, _, dt, _) -> dt *. 1e3) replies)
    in
    Array.sort compare lat;
    let pct, tail_ms = tail lat in
    set "replay_p50_ms" (percentile lat 50.);
    set "replay_tail_ms" tail_ms;
    set "replay_tail_pct" pct;
    seti "replay_requests" requests;
    let accesses =
      List.fold_left
        (fun n (_, _, doc, _, _) ->
          n + Option.value ~default:0 (Json.mem_int "accesses" doc))
        0 replies
    in
    set "replay_maccess_s"
      (float_of_int accesses /. (Array.fold_left ( +. ) 0. lat /. 1e3) /. 1e6);
    let parts =
      List.filter_map
        (fun (_, source, _, dt, parts) ->
          Option.map (fun p -> (source, dt *. 1e3, p)) parts)
        replies
    in
    let med f = median (List.map f parts) in
    set "workload.trace_ms" (med (fun (_, _, (t, _, _, _)) -> t));
    set "automata.compile_ms"
      (median
         (List.filter_map
            (fun (s, _, (_, c, _, _)) -> if s = "learned" then Some c else None)
            parts));
    set "workload.replay_ms" (med (fun (_, _, (_, _, r, _)) -> r));
    set "workload.opt_ms" (med (fun (_, _, (_, _, _, o)) -> o));
    set "service.replay_overhead_ms"
      (med (fun (_, dt, (t, c, r, o)) -> dt -. (t +. c +. r +. o)));
    let local_ms =
      List.fold_left
        (fun a (_, _, (t, c, r, o)) -> a +. t +. c +. r +. o)
        0. parts
    in
    (* Session snapshots: the daemon learns through Learn.run_simulated
       with its default snapshot cadence; a local learn with the same
       cadence exposes the learn.snapshot_write_seconds series. *)
    let registry = Metrics.create () in
    let path = Filename.concat dir "local.snap" in
    let every_queries =
      (Server.config ~state_dir:dir "unused").Server.snapshot_every
    in
    let snap, snap_s, _ =
      measure (fun () ->
          Learn.learn_simulated ~identify:false ~metrics:registry
            ~snapshot:(Learn.snapshot_policy ~every_queries path)
            p)
    in
    same "states (snapshotting learn)" local.Learn.states snap.Learn.states;
    same "member queries (snapshotting learn)" local.Learn.member_queries
      snap.Learn.member_queries;
    (match
       List.assoc_opt "learn.snapshot_write_seconds" (Metrics.snapshot registry)
     with
    | Some (Metrics.Histogram_value h) ->
        seti "session.snapshot_writes" h.Metrics.hs_count;
        set "session.snapshot_s" h.Metrics.hs_sum
    | _ -> raise (Diverged "no learn.snapshot_write_seconds series"));
    seti "session.snapshot_bytes" (Unix.stat path).Unix.st_size;
    set "session.snapshot_overhead_s" (snap_s -. local_s);
    set "service.learn_overhead_s"
      (median (List.map (fun (_, dt, _) -> dt) reps) -. snap_s);
    seti "client.retries" (Client.request_retries c);
    seti "service.errors"
      (List.fold_left
         (fun n name -> n + server_counter server name)
         0
         [
           "service.protocol_errors";
           "service.busy_rejections";
           "service.degraded_rejections";
           "service.learns_failed";
         ]);
    (* Nothing is wrapped inside the daemon: the traced run's extra wall
       time is the local work it adds. *)
    set "trace.overhead_s" ((local_ms /. 1e3) +. snap_s)
  end

(* ---------- main ---------- *)

let workloads = [ "hw-l1"; "hw-l1-noisy"; "sim-lru6"; "daemon-plru8" ]

let run ~workload ~seed ~seconds ~trace ~smoke =
  let hw ~exact_states noise voting =
    let model =
      if smoke then Cq_hwsim.Cpu_model.toy else Cq_hwsim.Cpu_model.haswell
    in
    { model; noise; voting; exact_states }
  in
  match workload with
  | "hw-l1" ->
      run_hw ~seed ~seconds ~trace (hw ~exact_states:true M.quiet_noise None)
  | "hw-l1-noisy" ->
      run_hw ~seed ~seconds ~trace
        (hw ~exact_states:false M.default_noise
           (Some (FE.Adaptive { max = 5 })))
  | "sim-lru6" ->
      (* Seed-free: the simulated cache has no randomness. *)
      run_sim ~seconds ~trace ~policy:"LRU" ~assoc:(if smoke then 3 else 6)
  | "daemon-plru8" ->
      run_daemon ~seed ~seconds ~trace ~policy:"PLRU"
        ~assoc:(if smoke then 4 else 8)
        ~requests:(if smoke then 30 else 240)
        ~len:(if smoke then 2_000 else 50_000)
  | w -> invalid_arg ("unknown workload " ^ w)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat "|" workloads );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time per run");
      ( "--trace",
        Arg.Set_int trace,
        " 0: end-to-end metrics, 1: per-layer metrics" );
      ("--smoke", Arg.Set smoke, " tiny targets (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cqbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  (match
     run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~smoke:!smoke
   with
  | () -> ()
  | exception Diverged msg ->
      prerr_endline ("traced pass diverged from the untraced pass: " ^ msg);
      exit 3);
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match Hashtbl.find_opt values name with
          | Some v -> v
          | None when trace -> 0.
          | None -> invalid_arg ("end-to-end metric not measured: " ^ name)
        in
        ( name,
          Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]
        ))
      (if trace then per_layer else end_to_end)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]))
