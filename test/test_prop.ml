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

(* --- Conformance suites against their list-based reference ------------ *)

(* The W / Wp construction as it was first written: whole signatures
   recomputed with [Mealy.run_from] for every added word, identification
   sets picked by comparing output lists, and a product BFS over tuple
   states carrying path lists.  [Equivalence] computes the same sets by
   partition refinement over the compiled tables; the property below
   holds it to this reference word for word. *)
module Reference = struct
  module Eq = Cq_learner.Equivalence

  let find_counterexample ?(from_a = None) ?(from_b = None) a b =
    let k = Mealy.n_inputs a in
    let start =
      ( Option.value from_a ~default:(Mealy.init a),
        Option.value from_b ~default:(Mealy.init b) )
    in
    let seen = Hashtbl.create 997 in
    let queue = Queue.create () in
    Hashtbl.replace seen start ();
    Queue.add (start, []) queue;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         let (sa, sb), path = Queue.take queue in
         for i = 0 to k - 1 do
           let sa', oa = Mealy.step a sa i in
           let sb', ob = Mealy.step b sb i in
           if oa <> ob then begin
             result := Some (List.rev (i :: path));
             raise Exit
           end;
           let st = (sa', sb') in
           if not (Hashtbl.mem seen st) then begin
             Hashtbl.replace seen st ();
             Queue.add (st, i :: path) queue
           end
         done
       done
     with Exit -> ());
    !result

  let characterization_set_on m subset =
    let w = ref [] in
    let signature s = List.map (fun word -> Mealy.run_from m s word) !w in
    let unseparable : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
    let finished = ref false in
    while not !finished do
      let groups : ('a, int) Hashtbl.t = Hashtbl.create 97 in
      let clash = ref None in
      List.iter
        (fun s ->
          if !clash = None then begin
            let sg = Cq_util.Deep.pack (signature s) in
            match Hashtbl.find_opt groups sg with
            | Some s' ->
                if not (Hashtbl.mem unseparable (s', s)) then
                  clash := Some (s', s)
            | None -> Hashtbl.replace groups sg s
          end)
        subset;
      match !clash with
      | None -> finished := true
      | Some (p, q) -> (
          match find_counterexample ~from_a:(Some p) ~from_b:(Some q) m m with
          | Some word -> w := word :: !w
          | None -> Hashtbl.replace unseparable (p, q) ())
    done;
    !w

  let all m = List.init (Mealy.n_states m) Fun.id
  let characterization_set m = characterization_set_on m (all m)

  (* Indexed by position in [subset]. *)
  let identification_sets_on m subset w_set =
    let response s w = Mealy.run_from m s w in
    Array.of_list
      (List.map
         (fun s ->
           let confusable = ref (List.filter (fun t -> t <> s) subset) in
           let chosen = ref [] in
           List.iter
             (fun w ->
               if !confusable <> [] then begin
                 let rs = response s w in
                 let still = List.filter (fun t -> response t w = rs) !confusable in
                 if List.length still < List.length !confusable then begin
                   chosen := w :: !chosen;
                   confusable := still
                 end
               end)
             w_set;
           List.rev !chosen)
         subset)

  let identification_sets m w_set = identification_sets_on m (all m) w_set

  let w_method_suite ~depth h =
    let n_inputs = Mealy.n_inputs h in
    let access = Mealy.access_sequences h in
    let w_set = [] :: characterization_set h in
    let middles = Eq.words_up_to n_inputs depth in
    middles
    |> Seq.concat_map (fun m ->
           List.to_seq (all h)
           |> Seq.concat_map (fun s ->
                  let acc = Option.value access.(s) ~default:[] in
                  Seq.init n_inputs (fun i ->
                      List.to_seq w_set |> Seq.map (fun w -> acc @ (i :: m) @ w))
                  |> Seq.concat))

  let wp_method_suite ~depth h =
    let n_inputs = Mealy.n_inputs h in
    let access = Mealy.access_sequences h in
    let w_set = characterization_set h in
    let w_all = [] :: w_set in
    let wp = identification_sets h w_set in
    let middles = Eq.words_up_to n_inputs depth in
    let phase1 =
      List.to_seq (all h)
      |> Seq.concat_map (fun s ->
             let acc = Option.value access.(s) ~default:[] in
             middles
             |> Seq.concat_map (fun m ->
                    List.to_seq w_all |> Seq.map (fun w -> acc @ m @ w)))
    in
    let phase2 =
      List.to_seq (all h)
      |> Seq.concat_map (fun s ->
             let acc = Option.value access.(s) ~default:[] in
             Seq.init n_inputs (fun i ->
                 middles
                 |> Seq.concat_map (fun m ->
                        let reached = Mealy.state_after h (acc @ (i :: m)) in
                        let ws = match wp.(reached) with [] -> [ [] ] | ws -> ws in
                        List.to_seq ws |> Seq.map (fun w -> acc @ (i :: m) @ w)))
             |> Seq.concat)
    in
    Seq.append phase1 phase2

  let wp_quotient_suite ~depth ~is_rep ~sweep h =
    let n_inputs = Mealy.n_inputs h in
    let access = Mealy.access_sequences h in
    let acc s = Option.value access.(s) ~default:[] in
    let states = all h in
    let rep_states = List.filter is_rep states in
    let aliased = List.filter (fun s -> not (is_rep s)) states in
    let w_set = sweep :: characterization_set_on h rep_states in
    let w_all = [] :: w_set in
    let wp = Hashtbl.create 64 in
    List.iteri
      (fun j ws -> Hashtbl.replace wp (List.nth rep_states j) ws)
      (Array.to_list (identification_sets_on h rep_states w_set));
    let middles = Eq.words_up_to n_inputs depth in
    let phase1 =
      List.to_seq rep_states
      |> Seq.concat_map (fun s ->
             middles
             |> Seq.concat_map (fun m ->
                    List.to_seq w_all |> Seq.map (fun w -> acc s @ m @ w)))
    in
    let phase2 =
      List.to_seq rep_states
      |> Seq.concat_map (fun s ->
             Seq.init n_inputs (fun i ->
                 middles
                 |> Seq.concat_map (fun m ->
                        let prefix = acc s @ (i :: m) in
                        let reached = Mealy.state_after h prefix in
                        let ws =
                          if is_rep reached then
                            match Hashtbl.find_opt wp reached with
                            | Some [] | None -> [ [] ]
                            | Some ws -> ws
                          else [ sweep ]
                        in
                        List.to_seq ws |> Seq.map (fun w -> prefix @ w)))
             |> Seq.concat)
    in
    let spot =
      let full_spots = List.length aliased * n_inputs <= 8192 in
      List.to_seq (List.mapi (fun j s -> (j, s)) aliased)
      |> Seq.concat_map (fun (j, s) ->
             if full_spots || j mod 4 = 0 then
               Seq.cons (acc s @ sweep)
                 (Seq.init n_inputs (fun i -> acc s @ (i :: sweep)))
             else Seq.return (acc s @ sweep))
    in
    Seq.append phase1 (Seq.append phase2 spot)
end

(* A random machine over [k] inputs and three outputs: [base] random
   states, then (sometimes) exact copies of some of them with part of the
   incoming edges redirected to the copy — non-minimal, so some pairs no
   word separates — and (sometimes) extra states nothing points to. *)
let random_machine prng ~k =
  let base = 1 + Prng.int prng 7 in
  let rows = ref [] in
  for _ = 1 to base do
    rows :=
      ( Array.init k (fun _ -> Prng.int prng base),
        Array.init k (fun _ -> Prng.int prng 3) )
      :: !rows
  done;
  let rows = ref (Array.of_list (List.rev !rows)) in
  if Prng.bool prng 0.5 then
    for _ = 1 to 1 + Prng.int prng 3 do
      let src = Prng.int prng (Array.length !rows) in
      let copy = Array.length !rows in
      let next, out = !rows.(src) in
      rows := Array.append !rows [| (Array.copy next, Array.copy out) |];
      Array.iter
        (fun (next, _) ->
          Array.iteri
            (fun i t -> if t = src && Prng.bool prng 0.5 then next.(i) <- copy)
            next)
        !rows
    done;
  if Prng.bool prng 0.5 then begin
    let reachable = Array.length !rows in
    let extra = 1 + Prng.int prng 3 in
    let total = reachable + extra in
    rows :=
      Array.append !rows
        (Array.init extra (fun _ ->
             ( Array.init k (fun _ -> Prng.int prng total),
               Array.init k (fun _ -> Prng.int prng 3) )))
  end;
  Mealy.make ~init:0 ~n_inputs:k
    ~next:(Array.map fst !rows) ~out:(Array.map snd !rows)

let test_conformance_matches_reference () =
  let module Eq = Cq_learner.Equivalence in
  let prng = prng_for "conformance" "reference" in
  let fail_on what m =
    Alcotest.fail
      (Fmt.str "%s differs from the reference on@.%a" what
         (Mealy.pp ~pp_input:Fmt.int ~pp_output:Fmt.int)
         m)
  in
  let same what m a b = if a <> b then fail_on what m in
  let suite s = List.of_seq s in
  let non_minimal = ref 0 and unreachable = ref 0 in
  for _ = 1 to iters do
    let k = 1 + Prng.int prng 3 in
    let m = random_machine prng ~k in
    let n = Mealy.n_states m in
    if Array.exists Option.is_none (Mealy.access_sequences m) then
      incr unreachable;
    let equivalent_pair =
      List.exists
        (fun s ->
          List.exists
            (fun t ->
              Reference.find_counterexample ~from_a:(Some s) ~from_b:(Some t) m m
              = None)
            (List.init (n - s - 1) (fun d -> s + 1 + d)))
        (List.init n Fun.id)
    in
    if equivalent_pair then incr non_minimal;
    let w = Eq.characterization_set m in
    same "W" m w (Reference.characterization_set m);
    same "Wp sets" m (Eq.identification_sets m w)
      (Reference.identification_sets m w);
    let subset = List.filter (fun _ -> Prng.bool prng 0.6) (List.init n Fun.id) in
    let w_on = Eq.characterization_set_on m subset in
    same "W on a subset" m w_on (Reference.characterization_set_on m subset);
    same "Wp sets on a subset" m
      (Eq.identification_sets_on m subset w_on)
      (Reference.identification_sets_on m subset w_on);
    same "W-method suite" m
      (suite (Eq.w_method_suite ~depth:1 m))
      (suite (Reference.w_method_suite ~depth:1 m));
    same "Wp-method suite" m
      (suite (Eq.wp_method_suite ~depth:1 m))
      (suite (Reference.wp_method_suite ~depth:1 m));
    let is_rep s = List.mem s subset in
    let sweep = random_word prng ~n_symbols:k |> List.filteri (fun i _ -> i < 3) in
    same "Wp quotient suite" m
      (suite (Eq.wp_quotient_suite ~depth:1 ~is_rep ~sweep m))
      (suite (Reference.wp_quotient_suite ~depth:1 ~is_rep ~sweep m));
    (* Counterexamples between two states of [m], and between [m] and an
       unrelated machine over the same inputs. *)
    let other = random_machine prng ~k in
    let from_a = Some (Prng.int prng n) and from_b = Some (Prng.int prng n) in
    same "counterexample (same machine)" m
      (Mealy.find_counterexample ~from_a ~from_b m m)
      (Reference.find_counterexample ~from_a ~from_b m m);
    same "counterexample (two machines)" m
      (Mealy.find_counterexample m other)
      (Reference.find_counterexample m other)
  done;
  (* The sample must reach the unseparable-pair path and states no
     access word reaches. *)
  Alcotest.(check bool) "some machines are non-minimal" true (!non_minimal > 0);
  Alcotest.(check bool) "some machines have unreachable states" true
    (!unreachable > 0)

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
      Alcotest.test_case "W, Wp and counterexamples match the list reference"
        `Quick test_conformance_matches_reference;
    ] )
