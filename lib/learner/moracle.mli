(** Membership oracle for Mealy-machine learning: answers output queries
    (input word -> output word from the fixed initial state of the system
    under learning).  Polca implements this interface over a cache
    (Algorithm 1 of the paper).

    [query_batch] answers several independent words at once, letting the
    layers below batch and prefix-share the induced block traces. *)

type 'o t = {
  n_inputs : int;
  query : int list -> 'o list;
  query_batch : int list list -> 'o list list;
}

exception Inconsistent of string
(** Raised by {!cached} when the underlying system returns conflicting
    outputs for the same input word and arbitration (if enabled) could not
    resolve the conflict — the system looks genuinely nondeterministic. *)

val make :
  ?query_batch:(int list list -> 'o list list) ->
  n_inputs:int ->
  (int list -> 'o list) ->
  'o t
(** Build an oracle; without [query_batch] a sequential fallback
    ([List.map query]) is derived, so plain oracles keep working. *)

type stats = {
  queries : Cq_util.Metrics.counter;
      (** queries reaching the underlying system *)
  symbols : Cq_util.Metrics.counter;
  cache_hits : Cq_util.Metrics.counter;
      (** queries answered by the prefix cache *)
  batches : Cq_util.Metrics.counter;
      (** [query_batch] calls reaching the system *)
  batched : Cq_util.Metrics.counter;
      (** queries that reached the system inside a [query_batch] call;
          [queries - batched] arrived one at a time *)
  conflicts : Cq_util.Metrics.counter;
      (** prefix-cache conflicts observed (each one is a transient
          measurement flip somewhere, unless it escalates to
          {!Inconsistent}) *)
  latency : Cq_util.Metrics.histogram;
      (** seconds per call reaching the system, one sample for a single
          query or a whole batch alike: its count is
          [queries - batched + batches] *)
}
(** Registry-backed accounting ({!Cq_util.Metrics}). *)

val fresh_stats : ?registry:Cq_util.Metrics.t -> ?prefix:string -> unit -> stats
(** Stats registered as ["<prefix>.<field>"] (default prefix ["member"])
    in [registry] (default: a fresh private registry). *)

val counting : stats -> 'o t -> 'o t

val cached : ?stats:stats -> ?conflict_retries:int -> 'o t -> 'o t
(** Prefix-tree cache: a query whose whole path is known is answered
    locally; batches forward only the (deduplicated) unknown words.

    When the underlying system returns outputs for a word that conflict
    with a cached prefix, the word is re-executed up to [conflict_retries]
    times (default 0) to arbitrate: a fresh run agreeing with the cache
    exonerates it (the conflicting run carried a transient measurement
    flip); two fresh runs agreeing with each other outvote the single
    cached execution, whose entry is overwritten.  Conflicts that persist
    raise {!Inconsistent} — the system looks genuinely nondeterministic.

    Outputs are interned: every answer is built from the trie's
    dictionary, which holds the first object seen for each distinct
    output, so equal outputs come back as one shared object. *)

val cached_refresh :
  ?stats:stats -> ?conflict_retries:int -> 'o t -> 'o t * (int list -> 'o list)
(** As {!cached}, but also returns a [refresh] handle that bypasses the
    cache: it re-executes a word on the underlying system (until two
    consecutive runs agree, bounded by [conflict_retries]), overwrites the
    cached path with the fresh answer and returns it.  Callers use it to
    repair entries they suspect of holding a transient measurement flip —
    e.g. before trusting a counterexample from conformance testing. *)

type 'o knowledge
(** A portable dump of a prefix-trie cache's contents: the trie's output
    dictionary (each distinct output once) and the trie itself as one
    preorder byte string of child masks and varint output codes.
    Marshal-safe: sessions persist it in snapshots and feed it back
    through [preload] on resume, after which every previously answered
    query is served locally — the foundation of crash-resumable
    learning. *)

val check : 'o knowledge -> (unit, string) result
(** [Error] names the first structural fault of a dump read from outside:
    a child-mask bit at or above the input count, an output code outside
    the dictionary, or a byte string that ends early or runs past the
    trie.  An [export]ed dump always passes. *)

val knowledge_size : 'o knowledge -> int
(** Number of maximal known paths (leaves of the trie).
    @raise Invalid_argument when {!check} fails. *)

type 'o handle = {
  refresh : int list -> 'o list;  (** as returned by {!cached_refresh} *)
  export : unit -> 'o knowledge;  (** dump the trie's current contents *)
  preload : 'o knowledge -> unit;
      (** seed the trie from a dump that passed {!check} (overwrites
          overlapping paths).  The trie adopts the dump's output objects.
          @raise Invalid_argument when the dump's input count differs *)
}

val cached_session :
  ?stats:stats -> ?conflict_retries:int -> 'o t -> 'o t * 'o handle
(** As {!cached_refresh}, but the handle also exposes the trie for
    session snapshot / resume. *)

val of_mealy : 'o Cq_automata.Mealy.t -> 'o t
(** Oracle backed by an explicit machine (ground truth in tests). *)
