(* Equivalence oracles: approximations of the teacher's equivalence query
   by conformance testing (§3.3).

   The main oracle is the W-method with depth parameter [k]: its test suite
   is (|H| + k)-complete, giving the guarantee of Theorem 3.3 / Corollary
   3.4 — if the suite passes, the true machine is equivalent to the
   hypothesis or has more than |H| + k states.

   A random-walk oracle is provided as the cheaper heuristic alternative
   the paper mentions, and a "perfect" oracle (ground truth available) is
   used in tests and ablations. *)

type 'o t = 'o Cq_automata.Mealy.t -> int list option

(* --- Refinement core ----------------------------------------------------

   W and the Wp identification sets are both questions about one
   partition of a list of states ([states], in order) refined word by
   word: two states share a class while every word added so far gets the
   same response from both.  [Mealy.refine_classes] splits the classes by
   one word over the compiled hypothesis's flat tables, so a round costs
   |W| walks per state instead of re-running every state's whole
   signature as lists for each added word. *)

(* cq-lint: hot-loop — the refinement loops run once per W word per
   conformance round; per-state allocation is a bug. *)

(* Separating words for [states] of [m]: while some state shares a class
   with an earlier one, add a shortest word telling the first member of
   its class from it (product BFS) and split.  Classes are numbered by
   first appearance, so [first.(cls)] is the class's smallest position and
   a scan from position 0 meets pairs in the order the signature table of
   the list-based construction did.  Splitting never moves a state below
   the scan cursor into conflict (its class only loses members behind
   it), so the scan resumes where it stopped.

   A pair no word separates is left unseparated.  An honest L* hypothesis
   has none (rows are distinct), but a transient measurement flip can
   corrupt a table cell into distinguishing two rows whose machine states
   are equivalent.  Aborting here would kill the whole learn; instead the
   conformance suite built from the partial set still exercises the
   corrupt hypothesis and surfaces a counterexample, which lets the
   learner repair its table.  Such a pair keeps its class forever, so the
   cursor steps past it once and never meets it again.

   Returns W newest word first. *)
let separate m c states =
  let n = Array.length states in
  let cls = Array.make n 0 and first = Array.make (max n 1) 0 in
  let n_cls = ref 1 and w = ref [] and pos = ref 0 in
  while !pos < n do
    let f = first.(cls.(!pos)) in
    if f = !pos then incr pos
    else
      match
        Cq_automata.Mealy.find_counterexample ~from_a:(Some states.(f))
          ~from_b:(Some states.(!pos)) m m
      with
      | None -> incr pos
      | Some word ->
          w := word :: !w;
          n_cls := Cq_automata.Mealy.refine_classes c states cls !n_cls word;
          for j = n - 1 downto 0 do
            first.(cls.(j)) <- j
          done
  done;
  !w

(* Identification sets of [states] against each other: for each state,
   the words of [w_set] (in order) that split off part of what was still
   confusable with it.  What is still confusable with a state after a
   prefix of [w_set] is exactly the rest of its class in the partition
   refined by that prefix, so the word is chosen for every state whose
   class shrinks.  States that survive every word are genuinely
   equivalent in a corrupt (non-minimal) hypothesis — see [separate] —
   and no identification word can help.  Result by position in
   [states]. *)
let identify c states w_set =
  let n = Array.length states in
  let cls = Array.make n 0 and size = Array.make n n in
  let count = Array.make (max n 1) 0 in
  let chosen = Array.make n [] in
  let n_cls = ref 1 in
  let rec go = function
    | [] -> ()
    | _ when !n_cls >= n -> ()
    | word :: rest ->
        n_cls := Cq_automata.Mealy.refine_classes c states cls !n_cls word;
        Array.fill count 0 !n_cls 0;
        for j = 0 to n - 1 do
          count.(cls.(j)) <- count.(cls.(j)) + 1
        done;
        for j = 0 to n - 1 do
          let now = count.(cls.(j)) in
          if now < size.(j) then begin
            chosen.(j) <- word :: chosen.(j);
            size.(j) <- now
          end
        done;
        go rest
  in
  go w_set;
  for j = 0 to n - 1 do
    (* cq-lint: allow hot-loop-alloc — reverses each result once *)
    chosen.(j) <- List.rev chosen.(j)
  done;
  chosen

(* cq-lint: end hot-loop *)

let all_states m = Array.init (Cq_automata.Mealy.n_states m) Fun.id

(* Characterization set: a set of input words separating every pair of
   separable states of [m]. *)
let characterization_set m =
  separate m (Cq_automata.Mealy.compile m) (all_states m)

(* For each state, a minimal-ish subset of W distinguishing it from every
   other state: greedily pick words that split off the remaining
   confusable states. *)
let identification_sets m w_set =
  identify (Cq_automata.Mealy.compile m) (all_states m) w_set

(* The same two constructions restricted to the states of [subset]: the
   representative states of a quotient hypothesis. *)
let characterization_set_on m subset =
  separate m (Cq_automata.Mealy.compile m) (Array.of_list subset)

let identification_sets_on m subset w_set =
  identify (Cq_automata.Mealy.compile m) (Array.of_list subset) w_set

(* All input words of length [len], lexicographic. *)
let words_of_length n_inputs len =
  let rec go len =
    if len = 0 then Seq.return []
    else
      Seq.concat_map
        (fun w -> Seq.init n_inputs (fun i -> w @ [ i ]))
        (go (len - 1))
  in
  go len

(* All input words of length <= k, shortest first, lazily: suites built on
   top of this never materialise the O(n_inputs^k) middle layer, and a
   conformance-testing round that fails early only pays for the prefix it
   actually walked. *)
let words_up_to n_inputs k =
  Seq.concat (Seq.init (k + 1) (fun len -> words_of_length n_inputs len))

(* W-method test suite for hypothesis [h] with depth [k]:
   { access(s) · i · m · w  |  s state, i input, m ∈ I^{<=k}, w ∈ W ∪ {ε} }.
   Returned lazily as a Seq so the caller can stop at the first failure. *)
let w_method_suite ~depth h =
  let n_inputs = Cq_automata.Mealy.n_inputs h in
  let access = Cq_automata.Mealy.access_sequences h in
  let w_set = [] :: characterization_set h in
  let middles = words_up_to n_inputs depth in
  let states = List.init (Cq_automata.Mealy.n_states h) (fun s -> s) in
  (* Order tests roughly by length: iterate middles outermost (they grow),
     then states, inputs, and suffixes. *)
  middles
  |> Seq.concat_map (fun m ->
         List.to_seq states
         |> Seq.concat_map (fun s ->
                let acc = Option.value (access.(s)) ~default:[] in
                Seq.init n_inputs (fun i ->
                    List.to_seq w_set |> Seq.map (fun w -> acc @ (i :: m) @ w))
                |> Seq.concat))

(* Run a test word against the oracle and the (compiled) hypothesis.  The
   hypothesis is compiled once per conformance round — [Mealy.agrees]
   walks the flattened tables without allocating, where [Mealy.run] paid a
   tuple and an output-list cell per symbol. *)
let run_test (oracle : 'o Moracle.t) compiled word =
  not (Cq_automata.Mealy.agrees compiled word (oracle.Moracle.query word))

let w_method ?(depth = 1) (oracle : 'o Moracle.t) : 'o t =
 fun h ->
  let suite = w_method_suite ~depth h in
  let c = Cq_automata.Mealy.compile h in
  Seq.find (fun word -> run_test oracle c word) suite


(* The Wp-method [Fujiwara et al. 1991], the suite the paper actually uses
   (§3.4): phase 1 tests the state cover against the full characterization
   set W; phase 2 tests the transition cover against the *state
   identification set* W_s of the state each test word reaches — a subset
   of W sufficient to tell s apart from every other state.  Same
   (|H|+k)-completeness as the W-method, usually far fewer symbols. *)

let wp_method_suite ~depth h =
  let n_inputs = Cq_automata.Mealy.n_inputs h in
  let access = Cq_automata.Mealy.access_sequences h in
  let c = Cq_automata.Mealy.compile h and all = all_states h in
  let w_set = separate h c all in
  let w_all = [] :: w_set in
  let wp = identify c all w_set in
  let middles = words_up_to n_inputs depth in
  let states = List.init (Cq_automata.Mealy.n_states h) (fun s -> s) in
  let phase1 =
    (* state cover x I^{<=k} x (W ∪ {ε}) *)
    List.to_seq states
    |> Seq.concat_map (fun s ->
           let acc = Option.value access.(s) ~default:[] in
           middles
           |> Seq.concat_map (fun m ->
                  List.to_seq w_all |> Seq.map (fun w -> acc @ m @ w)))
  in
  let phase2 =
    (* transition cover x I^{<=k} x Wp(reached state) *)
    List.to_seq states
    |> Seq.concat_map (fun s ->
           let acc = Option.value access.(s) ~default:[] in
           Seq.init n_inputs (fun i ->
               middles
               |> Seq.concat_map (fun m ->
                      let reached =
                        Cq_automata.Mealy.state_after h (acc @ (i :: m))
                      in
                      let ws = match wp.(reached) with [] -> [ [] ] | ws -> ws in
                      List.to_seq ws |> Seq.map (fun w -> acc @ (i :: m) @ w)))
           |> Seq.concat)
  in
  Seq.append phase1 phase2

(* --- Focused suite for quotient-learned hypotheses ---------------------- *)

(* Conformance suite for a quotient-learned hypothesis.  A full Wp suite
   over the unfolded machine defeats the point of the quotient: its cost
   scales with the |assoc|!-sized orbit closure, and [identification_sets]
   alone is quadratic in states.  Instead the suite trusts the structure
   the table verified and spends accordingly:

   - representative states (frame = identity) get the full treatment:
     state cover and transition cover x I^{<=depth} x distinguishers,
     where the distinguishers are the sweep (which fingerprints a state's
     line frame) plus shortest separators for representative pairs;
   - aliased states get a spot-check: access word . sweep confirms the
     state's claimed frame, access word . input . sweep each outgoing
     transition's output and target frame.

   This trades the (|H|+k)-completeness bound for a suite whose size
   scales with states x inputs instead of states^2 — wrong merges still
   surface (the sweep pins the frame the merge asserted), and the learned
   machine is re-validated independently by Automaton_check and policy
   identification. *)
let wp_quotient_suite ~depth ~is_rep ~sweep h =
  let n_inputs = Cq_automata.Mealy.n_inputs h in
  let n = Cq_automata.Mealy.n_states h in
  let access = Cq_automata.Mealy.access_sequences h in
  let acc s = Option.value access.(s) ~default:[] in
  let states = List.init n Fun.id in
  let rep_states = List.filter is_rep states in
  let aliased = List.filter (fun s -> not (is_rep s)) states in
  let reps = Array.of_list rep_states in
  let c = Cq_automata.Mealy.compile h in
  let w_set = sweep :: separate h c reps in
  let w_all = [] :: w_set in
  (* Per-representative identification sets (the "p" of Wp): the subset
     of W a given representative actually needs to be told apart from
     the other representatives.  Transitions landing on an aliased state
     are identified by the sweep alone — it fingerprints the state's
     frame, which is exactly what the alias asserted. *)
  let wp = Array.make n [] in
  Array.iteri (fun j ws -> wp.(reps.(j)) <- ws) (identify c reps w_set);
  let middles = words_up_to n_inputs depth in
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
                      let reached = Cq_automata.Mealy.state_after h prefix in
                      let ws =
                        if is_rep reached then
                          match wp.(reached) with [] -> [ [] ] | ws -> ws
                        else [ sweep ]
                      in
                      List.to_seq ws |> Seq.map (fun w -> prefix @ w)))
           |> Seq.concat)
  in
  let spot =
    (* Every aliased state has its claimed frame confirmed.  Outgoing
       transitions are the frame-conjugates of the representative's
       (all of which phase2 tests in full), so per-transition spots only
       guard the conjugation itself: they run in full while affordable,
       and fall back to a deterministic 1-in-4 sample of the aliased
       states once the unfolding is large enough that full spots would
       scale with the orbit closure instead of the quotient. *)
    let full_spots = List.length aliased * n_inputs <= 8192 in
    List.to_seq (List.mapi (fun j s -> (j, s)) aliased)
    |> Seq.concat_map (fun (j, s) ->
           if full_spots || j mod 4 = 0 then
             Seq.cons
               (acc s @ sweep)
               (Seq.init n_inputs (fun i -> acc s @ (i :: sweep)))
           else Seq.return (acc s @ sweep))
  in
  Seq.append phase1 (Seq.append phase2 spot)

let wp_quotient ?(depth = 1) ~is_rep ~sweep (oracle : 'o Moracle.t) : 'o t =
 fun h ->
  (* While the unfolding is small, completeness is affordable — and the
     two suites catch different wrong machines.  The full Wp suite is
     (|H|+depth)-complete, which bites when a wrong merge still unfolds
     to at least the true machine's size (LIP); the focused suite's
     sweep distinguishers catch under-sized hypotheses whose state count
     voids that bound (BIP's 6-state impostor).  Run both when small;
     for unfoldings big enough that the full suite would scale with the
     orbit closure, the focused suite alone carries the test. *)
  let small =
    Cq_automata.Mealy.n_states h * Cq_automata.Mealy.n_inputs h <= 512
  in
  let focused = wp_quotient_suite ~depth ~is_rep ~sweep h in
  let suite =
    if small then Seq.append focused (wp_method_suite ~depth h) else focused
  in
  let c = Cq_automata.Mealy.compile h in
  Seq.find (fun word -> run_test oracle c word) suite

(* Random walks: [max_tests] random words of length up to [max_len]. *)
let random_walk ~prng ?(max_tests = 10_000) ?(max_len = 30)
    (oracle : 'o Moracle.t) : 'o t =
 fun h ->
  let n_inputs = oracle.Moracle.n_inputs in
  let c = Cq_automata.Mealy.compile h in
  let rec go t =
    if t >= max_tests then None
    else
      let len = 1 + Cq_util.Prng.int prng max_len in
      let word = List.init len (fun _ -> Cq_util.Prng.int prng n_inputs) in
      if run_test oracle c word then Some word else go (t + 1)
  in
  go 0

(* Ground truth available: exact equivalence via product BFS. *)
let perfect (truth : 'o Cq_automata.Mealy.t) : 'o t =
 fun h -> Cq_automata.Mealy.find_counterexample truth h
let wp_method ?(depth = 1) (oracle : 'o Moracle.t) : 'o t =
 fun h ->
  let suite = wp_method_suite ~depth h in
  let c = Cq_automata.Mealy.compile h in
  Seq.find (fun word -> run_test oracle c word) suite

(* Total number of input symbols in a suite — the cost metric for the
   W-vs-Wp ablation. *)
let suite_symbols suite =
  Seq.fold_left (fun acc w -> acc + List.length w) 0 suite

(* --- Pooled conformance testing ---------------------------------------- *)

(* Split off up to [n] chunks of [chunk] words from a suite.  Chunks keep
   suite order, so "first failing word of the earliest failing chunk" is
   exactly the word sequential execution would have found first. *)
let take_chunks n chunk seq =
  let rec take_chunk k seq acc =
    if k = 0 then (List.rev acc, seq)
    else
      match seq () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (w, rest) -> take_chunk (k - 1) rest (w :: acc)
  in
  let rec go n seq acc =
    if n = 0 then (List.rev acc, seq)
    else
      let c, rest = take_chunk chunk seq [] in
      if c = [] then (List.rev acc, rest) else go (n - 1) rest (c :: acc)
  in
  go n seq []

(* Conformance testing through a domain pool: the suite is cut into
   in-order chunks, one round of [Pool.size] chunks is fanned out at a
   time (each worker querying its own private oracle), and the round's
   results are scanned in suite order.  A failing round stops the scan, so
   the returned counterexample is identical to the sequential one; the
   only overshoot is the tail of the round already in flight. *)
let pooled ?(chunk = 512) ~suite (pool : 'o Moracle.t Cq_util.Pool.t) : 'o t =
 fun h ->
  if chunk < 1 then invalid_arg "Equivalence.pooled: chunk must be >= 1";
  (* The compiled hypothesis is immutable, so sharing it read-only across
     the pool's domains is safe. *)
  let c = Cq_automata.Mealy.compile h in
  let rec rounds seq =
    let chunks, rest = take_chunks (Cq_util.Pool.size pool) chunk seq in
    if chunks = [] then None
    else
      let results =
        Cq_util.Pool.map_list pool
          (fun oracle words ->
            List.find_opt (fun w -> run_test oracle c w) words)
          chunks
      in
      match List.find_map Fun.id results with
      | Some cex -> Some cex
      | None -> rounds rest
  in
  rounds (suite h)

let w_method_pooled ?(depth = 1) ?chunk pool =
  pooled ?chunk ~suite:(w_method_suite ~depth) pool

let wp_method_pooled ?(depth = 1) ?chunk pool =
  pooled ?chunk ~suite:(wp_method_suite ~depth) pool
