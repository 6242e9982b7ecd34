(** The simulated silicon CPU: an inclusive three-level cache hierarchy
    with slicing, set indexing, adaptive L3 set-dueling, hardware
    prefetchers, Intel CAT way masking, and a cycle-accounting timing
    model with configurable measurement noise.

    This is the substitution target for the paper's physical i7-4790 /
    i5-6500 / i7-8550U machines: the CacheQuery backend only ever
    observes load latencies, clflush/wbinvd, and the ability to pick
    addresses, all of which this module provides. *)

type noise_config = {
  jitter_sigma : float;  (** per-load gaussian jitter, cycles *)
  outlier_prob : float;  (** probability of an interrupt/TLB-style spike *)
  outlier_cycles : int;  (** magnitude of a spike *)
  burst_prob : float;  (** probability per load that a noise burst starts *)
  burst_len : int;  (** loads a burst lasts once started *)
  burst_cycles : int;  (** extra cycles per load during a burst *)
  drift_rate : float;  (** slow common-mode latency drift, cycles/load *)
}

val quiet_noise : noise_config
(** No noise at all: deterministic latencies. *)

val default_noise : noise_config
(** Realistic stationary noise: gaussian jitter plus rare outlier
    spikes. *)

val burst_noise : noise_config
(** {!default_noise} plus interrupt-storm-style bursts: for a short run
    of loads every latency is inflated enough to flip hit
    classifications — transient, unlike structural nondeterminism. *)

val drift_noise : noise_config
(** {!default_noise} plus DVFS/thermal-style drift: all latencies creep
    upward as the run progresses, so a threshold calibrated once
    eventually sits inside the hit population. *)

type t

val create : ?seed:int64 -> ?noise:noise_config -> Cpu_model.t -> t

val model : t -> Cpu_model.t
val set_noise : t -> noise_config -> unit
val prefetchers_enabled : t -> bool
val set_prefetchers : t -> bool -> unit

val loads : t -> int
(** Total loads issued — a work counter, deliberately not rewound by
    {!checkpoint} (latency drift keys on it). *)

val effective_assoc : t -> Cpu_model.level -> int
(** The level's associativity as the attacker sees it (CAT-reduced for
    the L3 after {!set_cat_ways}). *)

val map_addr : t -> Cpu_model.level -> int -> int * int
(** [(slice, set)] a physical address maps to at a given level. *)

val congruent_addresses :
  ?filter:(int -> bool) ->
  ?start:int ->
  t ->
  Cpu_model.level ->
  slice:int ->
  set:int ->
  int ->
  int list
(** Enumerate [n] distinct line-aligned physical addresses congruent
    with the given (slice, set) at the level, optionally [filter]ed;
    [start] skips the first [start] stride steps.  Raises [Failure] if
    the synthetic physical address space is exhausted first. *)

val set_cat_ways : t -> int -> unit
(** Virtually reduce the L3 associativity via Intel CAT.  Re-partitioning
    drops the cached content of the masked region (modelled as a fresh
    L3).  Raises [Failure] on CPUs without CAT support,
    [Invalid_argument] on a bad way count. *)

val reset_cat : t -> unit
(** Undo {!set_cat_ways} (again dropping the L3 content). *)

val load_raw : t -> int -> [ `L1 | `L2 | `L3 | `Memory ]
(** Load without timing: returns the level that served the access. *)

val load : t -> int -> int
(** Timed load: the measured latency in cycles, as rdtsc-style profiling
    would observe it — base latency of the serving level plus jitter,
    outlier spikes, burst inflation and drift per the active
    {!noise_config}. *)

val checkpoint : ?rewind_noise:bool -> t -> unit -> unit
(** Checkpoint the full architectural state (all three levels, the
    set-dueling counter, prefetcher and noise state); the returned thunk
    restores it and may be called again.  This is the primitive behind
    prefix-sharing batch execution.  Each level journals the sets written
    after a checkpoint or restore ({!Cache_level.checkpoint}), so both
    cost O(sets written since), not O(sets ever touched).  Checkpoints
    nest.  Restoring one after {!end_checkpoints}, or after an older
    checkpoint's restore has discarded the state it needs, raises
    [Invalid_argument].  [rewind_noise:false] restores the architectural
    state but leaves the noise stream where it is, so re-executing the
    same access draws an {e independent} measurement — exactly what
    re-measuring a disputed load on silicon does (the voting layer uses
    this). *)

val end_checkpoints : t -> unit
(** End every live checkpoint and drop the levels' journals.  The
    CacheQuery frontend calls this at every query reset (the batch
    executor's reset contract), so a journal never outlives a query;
    until the next {!checkpoint}, writes are not journaled at all. *)

val clflush : t -> int -> unit
(** Evict the address's line from every level. *)

val wbinvd : t -> unit
(** Drop all cached content everywhere (replacement metadata stays, as
    on real hardware). *)

val replay_set :
  ?universe:int ->
  t ->
  Cpu_model.level ->
  slice:int ->
  set:int ->
  int array ->
  Bytes.t
(** [replay_set t level ~slice ~set blocks] drives a block-id trace
    through one set of the level and returns the hit/miss stream — one
    byte per access, [1] when the access was served at [level] or closer
    to the core.  Block id [b] maps to the [b]-th address congruent with
    the set ([universe] fixes the id range; default the trace's max + 1).
    Disable prefetchers first for faithful single-set semantics. *)

(** {1 Introspection (tests, diagnostics)} *)

val peek_set : t -> Cpu_model.level -> slice:int -> set:int -> int option array
(** The tags of one set (a copy). *)

val psel : t -> int
(** The set-dueling selector counter. *)
