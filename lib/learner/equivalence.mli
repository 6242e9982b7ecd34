(** Equivalence oracles: conformance-testing approximations of the
    teacher's equivalence query (§3.3 of the paper).

    The W-method suite with depth [k] is [(|H| + k)]-complete, yielding
    the guarantee of Theorem 3.3 / Corollary 3.4: if the suite passes, the
    system under learning is equivalent to the hypothesis or has more than
    [|H| + k] states. *)

type 'o t = 'o Cq_automata.Mealy.t -> int list option
(** An equivalence oracle maps a hypothesis to a counterexample word, or
    [None] when no disagreement is found. *)

val characterization_set : 'o Cq_automata.Mealy.t -> int list list
(** A set of input words separating every pair of separable states,
    newest word first: while some state has the response signature of
    an earlier one, a shortest word separating the pair (product BFS) is
    added.  States no word separates (a non-minimal machine) are left
    together rather than raising. *)

val words_of_length : int -> int -> int list Seq.t
(** [words_of_length n_inputs len]: all input words of length [len],
    lexicographic, lazily. *)

val words_up_to : int -> int -> int list Seq.t
(** [words_up_to n_inputs k]: all input words of length [<= k], shortest
    first (including the empty word), as a lazy (re-traversable)
    sequence — the O(n_inputs^k) middle layer of a test suite is never
    materialised. *)

val w_method_suite : depth:int -> 'o Cq_automata.Mealy.t -> int list Seq.t
(** The (|H|+depth)-complete test suite, lazily. *)

val w_method : ?depth:int -> 'o Moracle.t -> 'o t
(** Conformance testing with the W-method; [depth] defaults to 1 (the
    paper's k). *)

val identification_sets :
  'o Cq_automata.Mealy.t -> int list list -> int list list array
(** Per-state identification sets: for each state, a subset of the given
    characterization set distinguishing it from every other state. *)

val characterization_set_on :
  'o Cq_automata.Mealy.t -> int list -> int list list
(** [characterization_set_on m subset]: {!characterization_set} for the
    pairs of states of [subset] only (in that order), the representative
    states of a quotient hypothesis. *)

val identification_sets_on :
  'o Cq_automata.Mealy.t -> int list -> int list list -> int list list array
(** [identification_sets_on m subset w_set]: {!identification_sets}
    among the states of [subset] only, indexed by position in
    [subset]. *)

val wp_method_suite : depth:int -> 'o Cq_automata.Mealy.t -> int list Seq.t
(** The Wp-method suite [Fujiwara et al. 1991] — the suite the paper's
    implementation uses; same (|H|+depth)-completeness as the W-method
    with (usually far) fewer symbols. *)

val wp_method : ?depth:int -> 'o Moracle.t -> 'o t

val wp_quotient_suite :
  depth:int ->
  is_rep:(int -> bool) ->
  sweep:int list ->
  'o Cq_automata.Mealy.t ->
  int list Seq.t
(** Focused suite for a quotient-learned hypothesis: representative
    states ([is_rep]) get full Wp-style phases whose distinguishers are
    the eviction [sweep] (which fingerprints a state's line frame) plus
    shortest separators of representative pairs; aliased states get a
    spot-check (access word [.] sweep, and access word [.] input [.]
    sweep per transition).  Cost scales with states x inputs instead of
    states^2, trading the (|H|+depth)-completeness bound for a budget
    that stays within the direct learner's at larger associativity —
    wrong merges still surface because the sweep pins the exact frame
    each merge asserted. *)

val wp_quotient :
  ?depth:int -> is_rep:(int -> bool) -> sweep:int list -> 'o Moracle.t -> 'o t

val suite_symbols : int list Seq.t -> int
(** Total input symbols in a suite (the W-vs-Wp ablation metric). *)

val pooled :
  ?chunk:int ->
  suite:('o Cq_automata.Mealy.t -> int list Seq.t) ->
  'o Moracle.t Cq_util.Pool.t ->
  'o t
(** Run a conformance-test suite through a domain pool: in-order chunks of
    [chunk] (default 512) words, one pool-sized round in flight at a time,
    each worker testing against its own private oracle from the pool's
    factory.  Returns the same counterexample as sequential execution
    (first failing word in suite order); a failing round only overshoots
    by the chunks already in flight. *)

val w_method_pooled :
  ?depth:int -> ?chunk:int -> 'o Moracle.t Cq_util.Pool.t -> 'o t

val wp_method_pooled :
  ?depth:int -> ?chunk:int -> 'o Moracle.t Cq_util.Pool.t -> 'o t

val random_walk :
  prng:Cq_util.Prng.t -> ?max_tests:int -> ?max_len:int -> 'o Moracle.t -> 'o t
(** The cheaper random-testing heuristic the paper mentions (§6). *)

val perfect : 'o Cq_automata.Mealy.t -> 'o t
(** Exact equivalence against a known ground truth (tests/ablations). *)
