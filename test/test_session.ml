(* Tests for durable learning sessions (Session + the Learn/Hardware resume
   plumbing): snapshot round-trips, rejection of damaged files, and the
   headline property — a run killed at an arbitrary query count and resumed
   from its snapshot produces the *identical* automaton a crash-free run
   would have produced. *)

module Session = Cq_core.Session
module Learn = Cq_core.Learn
module Moracle = Cq_learner.Moracle

let temp_snap () = Filename.temp_file "cq_test_session" ".snap"

let with_temp f =
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Byte-identical structure, not just trace equivalence. *)
let same_machine a b =
  Cq_automata.Mealy.equivalent a b
  && Marshal.to_string a [] = Marshal.to_string b []

(* --- Round-trip ---------------------------------------------------------- *)

let sample_calibration =
  {
    Cq_cachequery.Backend.cal_threshold = 140;
    cal_margin = 12;
    cal_miss_ceiling = 400;
    cal_ewma_hit = 80.5;
    cal_ewma_miss = 210.25;
  }

let sample_snapshot () =
  let policy = Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:4 in
  let oracle = Moracle.of_mealy (Cq_policy.Policy.to_mealy policy) in
  let cached, handle = Moracle.cached_session oracle in
  ignore (cached.Moracle.query [ 0; 1; 2 ]);
  ignore (cached.Moracle.query [ 3; 0; 1; 0 ]);
  let table =
    {
      Cq_learner.Lstar.suffixes = [ [ 0 ]; [ 1; 0 ] ];
      reps = [| []; [ 0 ] |];
      rows = [];
    }
  in
  {
    Session.meta =
      Session.make_meta ~label:"roundtrip" ~seed:42
        ~calibration:sample_calibration ~queries:17 ();
    knowledge = handle.Moracle.export ();
    table = Some table;
  }

let test_roundtrip () =
  with_temp (fun path ->
      let snap = sample_snapshot () in
      Session.save ~path snap;
      let snap' = Session.load ~path in
      let m = snap.Session.meta and m' = snap'.Session.meta in
      Alcotest.(check int) "version" Session.version m'.Session.version;
      Alcotest.(check string) "label" m.Session.label m'.Session.label;
      Alcotest.(check int) "queries" m.Session.queries m'.Session.queries;
      Alcotest.(check (option int)) "seed" m.Session.seed m'.Session.seed;
      (match m'.Session.calibration with
      | None -> Alcotest.fail "calibration lost in the round-trip"
      | Some c ->
          Alcotest.(check int) "threshold"
            sample_calibration.Cq_cachequery.Backend.cal_threshold
            c.Cq_cachequery.Backend.cal_threshold;
          Alcotest.(check (float 0.0)) "ewma hit"
            sample_calibration.Cq_cachequery.Backend.cal_ewma_hit
            c.Cq_cachequery.Backend.cal_ewma_hit);
      Alcotest.(check int) "knowledge size"
        (Moracle.knowledge_size snap.Session.knowledge)
        (Moracle.knowledge_size snap'.Session.knowledge);
      match snap'.Session.table with
      | None -> Alcotest.fail "table lost in the round-trip"
      | Some t ->
          Alcotest.(check (list (list int)))
            "suffixes" [ [ 0 ]; [ 1; 0 ] ]
            t.Cq_learner.Lstar.suffixes)

let test_load_opt_missing () =
  Alcotest.(check bool)
    "load_opt on a missing path" true
    (Session.load_opt ~path:"/nonexistent/cq_no_such_snapshot" = None)

(* --- Damage rejection ----------------------------------------------------- *)

let expect_corrupt label path =
  match Session.load ~path with
  | _ -> Alcotest.fail (label ^ ": damaged snapshot was accepted")
  | exception Session.Corrupt _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_rejects_damage () =
  with_temp (fun path ->
      Session.save ~path (sample_snapshot ());
      let good = read_file path in
      (* Missing file. *)
      expect_corrupt "missing" "/nonexistent/cq_no_such_snapshot";
      (* Empty and truncated files (a non-atomic writer's torn output). *)
      write_file path "";
      expect_corrupt "empty" path;
      write_file path (String.sub good 0 (String.length good / 2));
      expect_corrupt "truncated" path;
      write_file path (String.sub good 0 10);
      expect_corrupt "shorter than the header" path;
      (* Wrong magic: some other file format. *)
      let other = Bytes.of_string good in
      Bytes.set other 0 'X';
      write_file path (Bytes.to_string other);
      expect_corrupt "wrong magic" path;
      (* Version mismatch: a snapshot from a future format. *)
      let vers = Bytes.of_string good in
      Bytes.set vers 6 (Char.chr (Session.version + 1));
      write_file path (Bytes.to_string vers);
      expect_corrupt "version mismatch" path;
      (* Payload bit-flip: the digest must catch silent corruption. *)
      let flipped = Bytes.of_string good in
      let i = String.length good - 3 in
      Bytes.set flipped i (Char.chr (Char.code good.[i] lxor 0x40));
      write_file path (Bytes.to_string flipped);
      expect_corrupt "payload bit-flip" path;
      (* And the pristine bytes still load. *)
      write_file path good;
      ignore (Session.load ~path : Cq_policy.Types.output Session.snapshot))

(* --- Damaged trie sections -------------------------------------------------- *)

(* The on-disk layout of a snapshot, mirrored so a test can forge files
   whose digest is right but whose trie bytes are not: [raw_knowledge]
   has the fields of [Moracle.knowledge] in order, and the header is
   magic, version byte, MD5 of the payload. *)
type 'o raw_knowledge = { n_inputs : int; outputs : 'o array; trie : string }

type 'o raw_snapshot = {
  meta : Session.meta;
  knowledge : 'o raw_knowledge;
  table : 'o Cq_learner.Lstar.table_state option;
}

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let file_of_payload ~version payload =
  "CQSNAP" ^ String.make 1 (Char.chr version) ^ Digest.string payload ^ payload

let expect_trie_corrupt label path =
  match (Session.load ~path : Cq_policy.Types.output Session.snapshot) with
  | _ -> Alcotest.fail (label ^ ": damaged trie section was accepted")
  | exception Session.Corrupt msg ->
      if not (contains msg "trie") then
        Alcotest.fail (label ^ ": rejected for another reason: " ^ msg)

let test_rejects_damaged_trie () =
  with_temp (fun path ->
      let snap = sample_snapshot () in
      let raw : Cq_policy.Types.output raw_knowledge =
        Marshal.from_string (Marshal.to_string snap.Session.knowledge []) 0
      in
      let forge trie =
        Marshal.to_string
          {
            meta = snap.Session.meta;
            knowledge = { raw with trie };
            table = snap.Session.table;
          }
          []
      in
      (* The mirror is faithful: unmodified, it is the real payload. *)
      Alcotest.(check bool)
        "forged payload = saved payload" true
        (forge raw.trie = Marshal.to_string snap []);
      let load_forged trie =
        write_file path (file_of_payload ~version:Session.version (forge trie))
      in
      let t = raw.trie in
      let len = String.length t in
      (* Every truncation ends a subtree early. *)
      for cut = 0 to len - 1 do
        load_forged (String.sub t 0 cut);
        expect_trie_corrupt (Printf.sprintf "truncated to %d bytes" cut) path
      done;
      (* Any trailing byte is left over after the root's subtree. *)
      List.iter
        (fun c ->
          load_forged (t ^ String.make 1 c);
          expect_trie_corrupt "over-extended" path)
        [ '\000'; '\001'; '\255' ];
      (* LRU-4 has 5 inputs: bits 5-7 of the root's one-byte mask name
         no input. *)
      List.iter
        (fun bit ->
          let b = Bytes.of_string t in
          Bytes.set b 0 (Char.chr (Char.code t.[0] lor (1 lsl bit)));
          load_forged (Bytes.to_string b);
          expect_trie_corrupt (Printf.sprintf "mask bit %d" bit) path)
        [ 5; 6; 7 ];
      (* The root's first child code, raised past the dictionary. *)
      let b = Bytes.of_string t in
      Bytes.set b 1 (Char.chr 0x7f);
      load_forged (Bytes.to_string b);
      expect_trie_corrupt "code outside the dictionary" path;
      (* Every single-bit flip either still decodes or is a [Corrupt] —
         never an exception from inside the decoder. *)
      for i = 0 to len - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string t in
          Bytes.set b i (Char.chr (Char.code t.[i] lxor (1 lsl bit)));
          load_forged (Bytes.to_string b);
          match (Session.load ~path : Cq_policy.Types.output Session.snapshot) with
          | _ | (exception Session.Corrupt _) -> ()
        done
      done;
      load_forged t;
      ignore (Session.load ~path : Cq_policy.Types.output Session.snapshot))

(* A version-1 file held the trie as a list of maximal paths.  Its
   version byte rejects it before the payload is unmarshalled as the
   current type. *)
let test_rejects_v1 () =
  with_temp (fun path ->
      let v1_knowledge : (int list * Cq_policy.Types.output list) list =
        [ ([ 0; 1 ], [ None; None ]); ([ 4 ], [ Some 0 ]) ]
      in
      let payload =
        Marshal.to_string
          ( Session.make_meta ~queries:2 (),
            v1_knowledge,
            (None : Cq_policy.Types.output Cq_learner.Lstar.table_state option)
          )
          []
      in
      write_file path (file_of_payload ~version:1 payload);
      match (Session.load ~path : Cq_policy.Types.output Session.snapshot) with
      | _ -> Alcotest.fail "a version-1 snapshot was accepted"
      | exception Session.Corrupt msg ->
          Alcotest.(check bool)
            ("version mismatch named: " ^ msg)
            true
            (contains msg "version 1"))

(* --- Crash / resume determinism (simulated oracle) ------------------------ *)

(* Kill a software-simulated learning run with an unclassified exception
   raised from the fault-injection probe at a randomized query count; the
   failure handler must leave a final snapshot behind, and resuming from it
   must replay to the identical automaton. *)
let test_probe_crash_resume_simulated () =
  let policy = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:4 in
  let baseline = Learn.learn_simulated ~identify:false policy in
  let total = baseline.Learn.member_queries in
  let rng = Random.State.make [| 0xC0FFEE |] in
  List.iter
    (fun trial ->
      with_temp (fun path ->
          let kill_at = 1 + Random.State.int rng (max 1 (total * 3 / 4)) in
          let crashed =
            match
              Learn.learn_simulated ~identify:false
                ~snapshot:(Learn.snapshot_policy ~every_queries:25 path)
                ~probe:(fun q -> if q >= kill_at then raise Exit)
                policy
            with
            | _ -> false
            | exception Exit -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "trial %d: probe killed the run (at %d/%d)" trial
               kill_at total)
            true crashed;
          let resumed =
            Learn.learn_simulated ~identify:false ~resume:path policy
          in
          Alcotest.(check int)
            (Printf.sprintf "trial %d: same state count" trial)
            baseline.Learn.states resumed.Learn.states;
          Alcotest.(check bool)
            (Printf.sprintf "trial %d: identical automaton" trial)
            true
            (same_machine baseline.Learn.machine resumed.Learn.machine)))
    [ 1; 2 ]

(* --- Crash / resume determinism (simulated hardware) ---------------------- *)

(* The ISSUE's headline scenario: learning Haswell L1 through the full
   CacheQuery stack, killed mid-run at randomized query counts by the query
   budget (a clean Partial with a final snapshot), then resumed — the
   resumed run must restore the PRNG seed and the calibration record from
   the snapshot and finish with the identical automaton. *)
let test_kill_resume_hardware () =
  let model = Cq_hwsim.Cpu_model.haswell in
  let fresh () =
    Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model
  in
  let base_run =
    Cq_core.Hardware.learn_set ~check_hits:false (fresh ())
      Cq_hwsim.Cpu_model.L1
  in
  let base =
    match base_run.Cq_core.Hardware.outcome with
    | Cq_core.Hardware.Learned { report; _ } -> report
    | Cq_core.Hardware.Partial { failure; _ } ->
        Alcotest.fail (Fmt.str "baseline partial: %a" Learn.pp_failure failure)
    | Cq_core.Hardware.Failed { reason; _ } ->
        Alcotest.fail ("baseline failed: " ^ reason)
  in
  let total = base.Learn.member_queries in
  let rng = Random.State.make [| 0xDECAF |] in
  List.iter
    (fun trial ->
      with_temp (fun path ->
          let budget = 1 + Random.State.int rng (max 1 (total * 3 / 4)) in
          let crash_run =
            Cq_core.Hardware.learn_set ~check_hits:false
              ~snapshot:(Learn.snapshot_policy ~every_queries:50 path)
              ~query_budget:budget (fresh ()) Cq_hwsim.Cpu_model.L1
          in
          let resume_from =
            match crash_run.Cq_core.Hardware.outcome with
            | Cq_core.Hardware.Partial
                {
                  failure = Learn.Budget_exhausted _;
                  snapshot = Some s;
                  _;
                } ->
                s
            | Cq_core.Hardware.Partial { failure; _ } ->
                Alcotest.fail
                  (Fmt.str "trial %d: unexpected failure %a" trial
                     Learn.pp_failure failure)
            | _ ->
                Alcotest.fail
                  (Printf.sprintf
                     "trial %d: budget %d (of %d) did not stop the run" trial
                     budget total)
          in
          let resume_run =
            Cq_core.Hardware.learn_set ~check_hits:false ~resume:resume_from
              (fresh ()) Cq_hwsim.Cpu_model.L1
          in
          match resume_run.Cq_core.Hardware.outcome with
          | Cq_core.Hardware.Learned { report; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "trial %d: same state count" trial)
                base.Learn.states report.Learn.states;
              Alcotest.(check bool)
                (Printf.sprintf "trial %d: identical automaton" trial)
                true
                (same_machine base.Learn.machine report.Learn.machine)
          | Cq_core.Hardware.Partial { failure; _ } ->
              Alcotest.fail
                (Fmt.str "trial %d: resume partial: %a" trial Learn.pp_failure
                   failure)
          | Cq_core.Hardware.Failed { reason; _ } ->
              Alcotest.fail
                (Printf.sprintf "trial %d: resume failed: %s" trial reason)))
    [ 1; 2 ]

(* --- Failure taxonomy ------------------------------------------------------ *)

let test_exit_codes () =
  let d =
    {
      Cq_learner.Lstar.reason = "r";
      states = 1;
      queries = 2;
      elapsed = 0.1;
    }
  in
  List.iter
    (fun (failure, code) ->
      Alcotest.(check int) "exit code" code (Learn.failure_exit_code failure))
    [
      (Learn.Transient "t", 10);
      (Learn.Diverged d, 11);
      (Learn.Budget_exhausted "b", 12);
      (Learn.Worker_lost "w", 13);
    ]

(* Deadline supervision converts a runaway run into Budget_exhausted with a
   snapshot, instead of an open-ended hang. *)
let test_deadline_trips () =
  with_temp (fun path ->
      let policy = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:8 in
      match
        Learn.run_simulated ~identify:false
          ~snapshot:(Learn.snapshot_policy ~every_queries:10 path)
          ~deadline:(Cq_util.Clock.after 0.0) policy
      with
      | Learn.Complete _ -> Alcotest.fail "a 0-second deadline never tripped"
      | Learn.Partial p -> (
          (match p.Learn.failure with
          | Learn.Budget_exhausted _ -> ()
          | f ->
              Alcotest.fail
                (Fmt.str "expected Budget_exhausted, got %a" Learn.pp_failure f));
          match p.Learn.snapshot with
          | Some s -> Alcotest.(check bool) "snapshot exists" true (Sys.file_exists s)
          | None -> Alcotest.fail "no final snapshot on the way down"))

let suite =
  ( "session",
    [
      Alcotest.test_case "snapshot round-trip" `Quick test_roundtrip;
      Alcotest.test_case "load_opt on missing file" `Quick test_load_opt_missing;
      Alcotest.test_case "rejects damaged snapshots" `Quick test_rejects_damage;
      Alcotest.test_case "rejects damaged trie sections" `Quick
        test_rejects_damaged_trie;
      Alcotest.test_case "rejects version-1 snapshots" `Quick test_rejects_v1;
      Alcotest.test_case "probe crash + resume (simulated)" `Quick
        test_probe_crash_resume_simulated;
      Alcotest.test_case "kill + resume (Haswell L1)" `Quick
        test_kill_resume_hardware;
      Alcotest.test_case "failure exit codes" `Quick test_exit_codes;
      Alcotest.test_case "deadline trips to Partial" `Quick test_deadline_trips;
    ] )
