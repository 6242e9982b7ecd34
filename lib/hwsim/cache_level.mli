(** One level of the simulated cache hierarchy: a lazily-allocated
    collection of cache sets, each holding tag content (line addresses)
    plus one or two replacement-policy instances.

    Adaptive levels (the L3s, cf. Appendix B of the paper) distinguish
    three set kinds: leader-A sets run the "thrash-vulnerable" fixed
    policy, leader-B sets the "thrash-resistant" one, and follower sets
    track {e both} policy instances and take the victim from whichever
    the machine's global PSEL counter currently selects. *)

type set_kind = Plain | Leader_a | Leader_b | Follower

val set_kind_to_string : set_kind -> string

type t

val create :
  ?effective_assoc:int ->
  prng:Cq_util.Prng.t ->
  Cpu_model.level ->
  Cpu_model.level_spec ->
  t
(** [effective_assoc] reduces the associativity below the spec's (Intel
    CAT way masking); default is the spec's.  Raises [Invalid_argument]
    outside [1 .. spec.assoc].  [prng] drives the nondeterministic
    leader-B behaviour (Haswell), nothing else. *)

val effective_assoc : t -> int
val level : t -> Cpu_model.level
val spec : t -> Cpu_model.level_spec

val kind : t -> slice:int -> set:int -> set_kind

val find : t -> slice:int -> set:int -> line:int -> int
(** The way holding [line], or [-1] if it is not cached. *)

val hit : t -> slice:int -> set:int -> way:int -> unit
(** Touch the replacement state (both instances, in follower sets) for a
    hit on [way]. *)

val fill : t -> slice:int -> set:int -> line:int -> use_b:bool -> int
(** Install [line], filling an invalid way if one exists, otherwise
    evicting the policy's victim; [use_b] selects the secondary policy's
    victim in follower sets (driven by the machine's PSEL counter).
    Returns the evicted line, or [-1], so the machine can maintain
    inclusivity. *)

val invalidate : t -> slice:int -> set:int -> line:int -> unit
(** clflush semantics: drop [line] wherever it sits in the set. *)

val flush_content : t -> unit
(** wbinvd semantics: drop all cached content.  Replacement state is
    {e not} reset — real hardware leaves the (now stale) replacement
    metadata in place. *)

val checkpoint : t -> unit -> unit
(** Checkpoint the level (tag content, policy instances, counters, PRNG
    position); the returned thunk restores it and may be called again.
    Checkpoints are journaled: while one is live, the first write to a
    set after a checkpoint or restore saves that set, and a restore
    undoes only the saved sets, so both cost O(sets written).  A set
    first allocated after the checkpoint is restored to its pristine
    state, the state it had when the checkpoint was taken.  Checkpoints
    nest.  Restoring one after {!end_checkpoints}, or after an older
    checkpoint's restore has popped the journal entries it needs, raises
    [Invalid_argument]. *)

val end_checkpoints : t -> unit
(** End every live checkpoint and drop the journal; writes are not
    journaled again until the next {!checkpoint}.  The machine calls this
    at every query reset, so the journal never outlives a query. *)

(** {1 Introspection (tests, diagnostics)} *)

val peek_content : t -> slice:int -> set:int -> int option array
val fills : t -> int
val evictions : t -> int
