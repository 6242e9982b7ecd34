(* Property-based differential harness: every executor in the repository
   that claims to implement a replacement policy must agree on random
   access sequences.

   For every policy in the zoo, seeded random words are run through
   - the pure step function ([Policy.run]),
   - the mutable instance wrapper ([Instance.step]),
   - the explicit Mealy automaton ([Policy.to_mealy]),
   - the cache-set transition system ([Cache_set], hit/miss level),
   - the hardware simulator's set model ([Cq_hwsim.Cache_level]), and
   - Polca over a simulated cache ([Polca.run], the Algorithm 1
     abstraction round-trip: policy word -> block trace -> policy word),
   plus, for a few small policies, the automaton actually learned by
   [Learn.run_simulated].

   Everything is driven by the deterministic splitmix PRNG, so a failure
   reproduces exactly.  PROP_ITERS scales the word count per policy
   (default 100; CI runs a deeper pass). *)

module P = Cq_policy.Policy
module T = Cq_policy.Types
module Instance = Cq_policy.Instance
module Mealy = Cq_automata.Mealy
module Prng = Cq_util.Prng
module Learn = Cq_core.Learn

let iters =
  match Option.bind (Sys.getenv_opt "PROP_ITERS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 100

(* One generator per (test, policy) pair: adding a policy to the zoo or a
   test to this file does not perturb the words of the others. *)
let prng_for test_name policy_name =
  Prng.of_int (Hashtbl.hash (test_name, policy_name))

let random_word prng ~n_symbols =
  let len = 1 + Prng.int prng 24 in
  List.init len (fun _ -> Prng.int prng n_symbols)

(* Zoo policies at a fixed small associativity (4 suits every entry,
   including PLRU's power-of-two constraint). *)
let assoc = 4

let zoo_policies () =
  List.filter_map
    (fun e ->
      if e.Cq_policy.Zoo.valid_assoc assoc then
        Some (e.Cq_policy.Zoo.name, e.Cq_policy.Zoo.make assoc)
      else None)
    Cq_policy.Zoo.entries

(* In-order map: the differential executors are stateful, so evaluation
   order is part of the semantics. *)
let map_in_order f inputs =
  List.rev (List.fold_left (fun acc i -> f i :: acc) [] inputs)

let pp_word word = String.concat "," (List.map string_of_int word)

let check_agree ~what ~policy_name word expected actual =
  if expected <> actual then
    Alcotest.fail
      (Printf.sprintf "%s diverges from Policy.run on %s for word [%s]" what
         policy_name (pp_word word))

(* --- Pure step vs mutable instance vs explicit automaton -------------- *)

let test_instance_and_mealy_agree () =
  List.iter
    (fun (name, policy) ->
      let prng = prng_for "instance-mealy" name in
      let machine = P.to_mealy policy in
      for _ = 1 to iters do
        let word = random_word prng ~n_symbols:(T.n_inputs ~assoc) in
        let inputs = List.map (T.input_of_int ~assoc) word in
        let truth = P.run policy inputs in
        let inst = Instance.create policy in
        check_agree ~what:"Instance.step" ~policy_name:name word truth
          (map_in_order (Instance.step inst) inputs);
        check_agree ~what:"Mealy automaton" ~policy_name:name word truth
          (Mealy.run machine word)
      done)
    (zoo_policies ())

(* --- Cache_set vs an instance-driven reference model ------------------ *)

(* The reference is the textbook reading of Definition 2.3, written
   directly against the policy instance: a hit touches the matched line,
   a miss asks the policy for a victim and installs the block there. *)
let reference_cache_run policy blocks =
  let inst = Instance.create policy in
  let content = Array.of_list (Cq_cache.Block.first (P.assoc policy)) in
  let step b =
    let way = ref None in
    Array.iteri
      (fun w x -> if !way = None && Cq_cache.Block.equal x b then way := Some w)
      content;
    match !way with
    | Some w ->
        Instance.touch inst w;
        Cq_cache.Cache_set.Hit
    | None ->
        let victim = Instance.evict inst in
        content.(victim) <- b;
        Cq_cache.Cache_set.Miss
  in
  let results = map_in_order step blocks in
  (results, Array.copy content)

let test_cache_set_matches_reference () =
  List.iter
    (fun (name, policy) ->
      let prng = prng_for "cache-set" name in
      let set = Cq_cache.Cache_set.create policy in
      for _ = 1 to iters do
        (* Blocks from a pool slightly wider than the set: plenty of both
           hits and conflict misses. *)
        let word = random_word prng ~n_symbols:(assoc + 3) in
        let blocks = List.map Cq_cache.Block.of_index word in
        let expected, expected_content = reference_cache_run policy blocks in
        let actual = Cq_cache.Cache_set.run_from_reset set blocks in
        if expected <> actual then
          Alcotest.fail
            (Printf.sprintf "Cache_set diverges on %s for blocks [%s]" name
               (pp_word word));
        if expected_content <> Cq_cache.Cache_set.content set then
          Alcotest.fail
            (Printf.sprintf "Cache_set content diverges on %s for blocks [%s]"
               name (pp_word word))
      done)
    (zoo_policies ())

(* --- Cq_hwsim.Cache_level vs the same reference ----------------------- *)

(* The hardware simulator's set model adds invalid ways (a level starts
   empty) and the fill_touches_policy distinction; the reference below
   mirrors exactly those two rules on top of the policy instance. *)
let reference_level_run policy ~fill_touches_policy lines =
  let inst = Instance.create policy in
  let content = Array.make (P.assoc policy) None in
  let step line =
    let found = ref None in
    Array.iteri
      (fun w b -> if !found = None && b = Some line then found := Some w)
      content;
    match !found with
    | Some w ->
        Instance.touch inst w;
        `Hit
    | None -> (
        let invalid = ref None in
        Array.iteri
          (fun w b -> if !invalid = None && b = None then invalid := Some w)
          content;
        match !invalid with
        | Some w ->
            content.(w) <- Some line;
            if fill_touches_policy then Instance.touch inst w;
            `Fill None
        | None ->
            let victim = Instance.evict inst in
            let evicted = content.(victim) in
            content.(victim) <- Some line;
            `Fill evicted)
  in
  map_in_order step lines

let hwsim_level_run policy ~fill_touches_policy lines =
  let spec =
    {
      Cq_hwsim.Cpu_model.assoc = P.assoc policy;
      slices = 1;
      sets_per_slice = 4;
      hit_latency = 4;
      policy = Cq_hwsim.Cpu_model.Fixed (fun _ -> policy);
      fill_touches_policy;
    }
  in
  let level =
    Cq_hwsim.Cache_level.create ~prng:(Prng.of_int 7) Cq_hwsim.Cpu_model.L1 spec
  in
  let step line =
    let way = Cq_hwsim.Cache_level.find level ~slice:0 ~set:0 ~line in
    if way >= 0 then begin
      Cq_hwsim.Cache_level.hit level ~slice:0 ~set:0 ~way;
      `Hit
    end
    else
      match
        Cq_hwsim.Cache_level.fill level ~slice:0 ~set:0 ~line ~use_b:false
      with
      | -1 -> `Fill None
      | evicted -> `Fill (Some evicted)
  in
  map_in_order step lines

let test_hwsim_level_matches_reference () =
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun fill_touches_policy ->
          let prng =
            prng_for
              (Printf.sprintf "hwsim-level-%b" fill_touches_policy)
              name
          in
          for _ = 1 to iters do
            let lines = random_word prng ~n_symbols:(assoc + 3) in
            let expected =
              reference_level_run policy ~fill_touches_policy lines
            in
            let actual = hwsim_level_run policy ~fill_touches_policy lines in
            if expected <> actual then
              Alcotest.fail
                (Printf.sprintf
                   "Cache_level (fill_touches_policy=%b) diverges on %s for \
                    lines [%s]"
                   fill_touches_policy name (pp_word lines))
          done)
        [ true; false ])
    (zoo_policies ())

(* --- Polca round-trip (Algorithm 1) ----------------------------------- *)

(* Polca abstracts the block-level cache back into the policy alphabet;
   composed with the policy-induced cache this must be the identity on
   output words (Theorem 3.1 / Corollary 3.4). *)
let test_polca_roundtrip_identity () =
  List.iter
    (fun (name, policy) ->
      let prng = prng_for "polca-roundtrip" name in
      let polca = Cq_core.Polca.create (Cq_cache.Oracle.of_policy policy) in
      let machine = P.to_mealy policy in
      (* Each Polca word replays probe fan-outs, so go a bit easier. *)
      for _ = 1 to max 1 (iters / 4) do
        let word = random_word prng ~n_symbols:(T.n_inputs ~assoc) in
        check_agree ~what:"Polca round-trip" ~policy_name:name word
          (Mealy.run machine word)
          (Cq_core.Polca.run polca word)
      done)
    (zoo_policies ())

(* --- The learned automaton -------------------------------------------- *)

(* End-to-end: the automaton L* actually learns through Polca from a
   simulated cache agrees with the ground-truth policy on random words
   (not only on the conformance suite that drove the learning). *)
let test_learned_automaton_agrees () =
  List.iter
    (fun (name, assoc) ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
      match Learn.run_simulated ~identify:false policy with
      | Learn.Partial { failure; _ } ->
          Alcotest.fail
            (Fmt.str "learning %s-%d failed: %a" name assoc Learn.pp_failure
               failure)
      | Learn.Complete report ->
          let machine = report.Learn.machine in
          let prng = prng_for "learned" name in
          for _ = 1 to iters do
            let word = random_word prng ~n_symbols:(T.n_inputs ~assoc) in
            let inputs = List.map (T.input_of_int ~assoc) word in
            check_agree ~what:"learned automaton" ~policy_name:name word
              (P.run policy inputs)
              (Mealy.run machine word)
          done)
    [ ("FIFO", 3); ("LRU", 2); ("PLRU", 2); ("MRU", 3) ]

(* Soundness of the symmetry quotient: for every policy in the zoo, the
   machine learned with the quotient on is trace-equivalent to the
   ground-truth automaton.  The quotient may only change *how many
   queries* the table spends, never *what* it learns — an alias that
   survives verification but alters the machine would show up here.
   The quotient run also validates against the policy axioms, which
   re-checks the merge witness with anchored product walks.

   Equivalence is checked against the ground truth rather than against a
   direct (quotient-off) run because the direct baseline is not always
   sound at conformance depth 1: BIP-3's minimal machine has 24 states
   but plain Wp-depth-1 accepts a wrong 6-state hypothesis, while the
   quotient's sweep suffix refines the table far enough to learn the
   true machine.  Where the direct run is sound the two coincide (the
   assoc-scaling bench asserts that pairwise). *)
let test_quotient_learns_truth () =
  List.iter
    (fun (name, assoc) ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
      match
        Learn.run_simulated ~identify:false ~quotient:true ~validate:true
          policy
      with
      | Learn.Partial { failure; _ } ->
          Alcotest.fail
            (Fmt.str "quotient learning %s-%d failed: %a" name assoc
               Learn.pp_failure failure)
      | Learn.Complete report ->
          let truth = P.to_mealy policy in
          if not (Mealy.equivalent truth report.Learn.machine) then
            Alcotest.fail
              (Fmt.str
                 "%s-%d: quotient-learned machine differs from ground truth"
                 name assoc))
    [
      ("FIFO", 4); ("LRU", 4); ("PLRU", 4); ("MRU", 4); ("LIP", 4);
      ("BIP", 3); ("SRRIP-HP", 3); ("SRRIP-FP", 3); ("BRRIP", 3);
      ("New1", 3); ("New2", 3);
    ]

let suite =
  ( "prop",
    [
      Alcotest.test_case "instance & automaton agree with Policy.run" `Quick
        test_instance_and_mealy_agree;
      Alcotest.test_case "Cache_set matches the reference model" `Quick
        test_cache_set_matches_reference;
      Alcotest.test_case "hwsim Cache_level matches the reference model" `Quick
        test_hwsim_level_matches_reference;
      Alcotest.test_case "Polca round-trip is the identity" `Quick
        test_polca_roundtrip_identity;
      Alcotest.test_case "learned automata agree on random words" `Quick
        test_learned_automaton_agrees;
      Alcotest.test_case "quotient learning recovers ground truth (full zoo)"
        `Slow test_quotient_learns_truth;
    ] )
