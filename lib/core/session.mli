(** Durable learning sessions: versioned on-disk snapshots of learning
    progress, written atomically so a crash at any instant leaves a
    loadable file behind.

    A snapshot carries the membership oracle's prefix-trie contents, the
    L* observation table and the run metadata (PRNG seed, calibration
    state).  Resuming preloads the trie and replays the learner
    deterministically: every previously answered query is served locally,
    so the resumed run reaches the crash point at zero hardware cost and
    then continues — producing the {e identical} automaton a crash-free
    run would have produced. *)

exception Corrupt of string
(** The file is not a loadable snapshot: missing, truncated, wrong magic,
    incompatible format version, digest mismatch, an undecodable payload,
    or a structurally damaged trie section.  The message says which. *)

val version : int
(** Current snapshot format version (written into the header; {!load}
    rejects files written by other versions). *)

type meta = {
  version : int;  (** format version the snapshot was written with *)
  label : string;  (** human-readable run label ("" when unset) *)
  created : float;  (** Unix time of the write *)
  queries : int;  (** hardware queries answered when it was written *)
  seed : int option;  (** PRNG seed of the run (reset discovery replay) *)
  calibration : Cq_cachequery.Backend.calibration option;
      (** backend calibration state, restored instead of re-measuring *)
}

type 'o snapshot = {
  meta : meta;
  knowledge : 'o Cq_learner.Moracle.knowledge;  (** prefix-trie dump *)
  table : 'o Cq_learner.Lstar.table_state option;
      (** observation table at snapshot time *)
}

val make_meta :
  ?label:string ->
  ?seed:int ->
  ?calibration:Cq_cachequery.Backend.calibration ->
  queries:int ->
  unit ->
  meta

val save : path:string -> 'o snapshot -> unit
(** Serialize (magic + version + MD5 digest + [Marshal] payload) and write
    atomically: tmp sibling, fsync, rename.  Readers never observe a torn
    file; a crash mid-write leaves the previous snapshot intact. *)

val load : path:string -> 'o snapshot
(** Read and verify a snapshot.  @raise Corrupt on any damage (see
    {!exception-Corrupt}). *)

val load_opt : path:string -> 'o snapshot option
(** [None] when the file does not exist; still @raise Corrupt when it
    exists but is damaged — a damaged snapshot is an error to surface, not
    an absence to paper over. *)

val pp_meta : Format.formatter -> meta -> unit
