(** Deterministic Mealy machines over a dense integer input alphabet.

    Replacement policies (Definition 2.1 in the paper) are Mealy machines
    with inputs [{Ln(0), ..., Ln(n-1), Evct}]; the automata produced by the
    learner and consumed by the synthesiser all use this representation.
    States and inputs are integers ([0 ..]); outputs are polymorphic. *)

type 'o t

val make :
  init:int -> n_inputs:int -> next:int array array -> out:'o array array -> 'o t
(** [make ~init ~n_inputs ~next ~out] builds a machine from explicit tables.
    Raises [Invalid_argument] on malformed tables. *)

val n_states : 'o t -> int
val n_inputs : 'o t -> int
val init : 'o t -> int

val step : 'o t -> int -> int -> int * 'o
(** [step t s i] is the successor state and output for input [i] in state
    [s]. Raises [Invalid_argument] when [i] is out of range. *)

val next_state : 'o t -> int -> int -> int
val output : 'o t -> int -> int -> 'o

val run : 'o t -> int list -> 'o list
(** Output word for an input word from the initial state. *)

val run_from : 'o t -> int -> int list -> 'o list
val state_after : 'o t -> int list -> int

(** {2 Compiled evaluation}

    Conformance testing evaluates one fixed hypothesis on millions of
    words.  [compile] flattens the transition/output tables into
    preallocated one-dimensional vectors ([Bytes] when every state id fits
    a byte) built once per hypothesis; the walkers below are
    allocation-free on the agree/reject paths and are the evaluators the
    equivalence oracles and the learner's counterexample processing use. *)

type 'o compiled

val compile : 'o t -> 'o compiled

val compiled_n_states : 'o compiled -> int
val compiled_n_inputs : 'o compiled -> int
val compiled_init : 'o compiled -> int

val agrees : 'o compiled -> int list -> 'o list -> bool
(** [agrees c word expected] is [run c word = expected], evaluated without
    allocating and stopping at the first mismatch. *)

val agrees_from : 'o compiled -> int -> int list -> 'o list -> bool
(** [agrees_from c s word expected] is [agrees] started in state [s]. *)

val encode_outputs : 'o compiled -> 'o list -> int array
(** Translate an expected-output sequence into [c]'s output-dictionary
    codes.  Outputs the machine can never emit encode to [-1] and fail
    every comparison.  Encode once per recorded trace, then evaluate it
    repeatedly with {!agrees_codes} — the walk compares ints only, never
    touching the polymorphic structural equality that dominates
    {!agrees} on short outputs. *)

val agrees_codes : 'o compiled -> int list -> int array -> bool
(** [agrees_codes c word codes] is [agrees c word expected] where
    [codes = encode_outputs c expected], evaluated with int comparisons
    only and no allocation. *)

val agrees_codes_from : 'o compiled -> int -> int list -> int array -> bool
(** [agrees_codes_from c s word codes] is [agrees_codes] started in
    state [s]. *)

type trace
(** A fully pre-encoded (word, expected outputs) pair: the word packed
    into a range-checked int array, the outputs into dictionary codes.
    Build once per recorded trace with {!encode_trace}; each
    {!agrees_trace} evaluation is then a pure int-array walk. *)

val encode_trace : 'o compiled -> int list -> 'o list -> trace
(** [encode_trace c word expected] pre-encodes a trace against [c]'s
    output dictionary.  Raises [Invalid_argument] if an input symbol is
    out of range — the walkers skip per-symbol bounds tests. *)

val agrees_trace : 'o compiled -> trace -> bool
(** [agrees_trace c tr] is [agrees] on the pre-encoded trace, with int
    comparisons only, no allocation, and no per-symbol bounds checks. *)

val agrees_trace_from : 'o compiled -> int -> trace -> bool
(** [agrees_trace_from c s tr] is {!agrees_trace} started in state [s]. *)

val first_disagreement : 'o compiled -> int list -> 'o list -> int option
(** Index of the first position where the machine's output differs from
    [expected] (or where one sequence ends early), [None] if none. *)

val refine_classes :
  'o compiled -> int array -> int array -> int -> int list -> int
(** [refine_classes c states classes n word] splits a partition of the
    positions of [states] by their responses to [word].  On entry
    [classes.(j)] in [0, n) is the class of position [j]; on return two
    positions share a class iff they shared one before and states
    [states.(j)] emit the same outputs on [word].  New classes are
    numbered by first appearance along [states], so the first member of
    each class is its smallest position.  Updates [classes] in place and
    returns the new class count.  Raises [Invalid_argument] when [word]
    holds an input out of range. *)

val compiled_state_after : 'o compiled -> int list -> int
val compiled_state_after_from : 'o compiled -> int -> int list -> int
val compiled_run : 'o compiled -> int list -> 'o list
val compiled_run_from : 'o compiled -> int -> int list -> 'o list

(** {2 Streaming compiled stepper}

    The agree/reject walkers above answer one question per whole trace.
    Replay workloads need the machine's output {e per access}, millions of
    times, while interleaving their own bookkeeping (tag updates, miss
    attribution) between steps.  A {!stepper} is a compiled machine plus a
    mutable current state: each {!stepper_step} advances by one input and
    returns the output {e from the compiled table} — a physically shared
    value, so the walk allocates nothing per access. *)

type 'o stepper

val stepper : ?state:int -> 'o compiled -> 'o stepper
(** A fresh stepper positioned at [state] (default the initial state).
    Raises [Invalid_argument] on an out-of-range state.  Steppers are
    cheap; the compiled tables are shared, never copied. *)

val stepper_state : 'o stepper -> int
(** The current control state. *)

val stepper_reset : ?state:int -> 'o stepper -> unit
(** Reposition at [state] (default the initial state). *)

val stepper_step : 'o stepper -> int -> 'o
(** Advance by one input and return the emitted output (shared with the
    compiled table — no allocation).  Raises [Invalid_argument] when the
    input is out of range. *)

val stepper_step_code : 'o stepper -> int -> int
(** As {!stepper_step} but returns the output's dictionary code (an int
    comparison key); decode with {!decode_output}. *)

val decode_output : 'o compiled -> int -> 'o
(** The output behind a dictionary code ({!stepper_step_code},
    {!encode_outputs}).  Raises [Invalid_argument] on a bad code. *)

val of_fun :
  init:'s -> n_inputs:int -> step:('s -> int -> 's * 'o) -> max_states:int -> 'o t
(** Explicit reachable-state enumeration of an implicit machine. States of
    the implicit machine must be immutable and structurally comparable.
    The result numbers states in BFS order from the initial state. Fails if
    more than [max_states] states are reachable. *)

val minimize : 'o t -> 'o t
(** Minimal trace-equivalent machine, restricted to reachable states and
    numbered in BFS order (hence canonical for a given behaviour). *)

val find_counterexample :
  ?from_a:int option -> ?from_b:int option -> 'o t -> 'o t -> int list option
(** Shortest input word on which the two machines produce different
    outputs, or [None] when trace-equivalent; among shortest words, the
    lexicographically first.  [from_a]/[from_b] start the walk in other
    states than the initial ones (raises [Invalid_argument] when out of
    range). *)

val equivalent : 'o t -> 'o t -> bool
val canonicalize : 'o t -> 'o t
val isomorphic : 'o t -> 'o t -> bool

val access_sequences : 'o t -> int list option array
(** For each state, a shortest input word reaching it from the initial state
    ([None] for unreachable states). *)

val pp :
  ?pp_input:(Format.formatter -> int -> unit) ->
  pp_output:(Format.formatter -> 'o -> unit) ->
  Format.formatter ->
  'o t ->
  unit

val to_dot :
  ?name:string ->
  input_label:(int -> string) ->
  output_label:('o -> string) ->
  'o t ->
  string

val of_dot :
  input_of_label:(string -> int option) ->
  output_of_label:(string -> 'o option) ->
  string ->
  ('o t, string) result
(** Parse a machine from the DOT text {!to_dot} emits (node names [sN],
    a [__start] arrow marking the initial state, one ["in/out"]-labelled
    edge per transition).  The label parsers invert the exporter's
    [input_label]/[output_label]; a label either rejects ([None]) or
    yields the dense input index / output value.  The machine must be
    complete — every state needs exactly one edge per input index — and
    input indices must form [0 .. k-1].  Errors name the offending
    line. *)
