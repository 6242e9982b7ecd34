(** The prefix-sharing batch executor: fold a batch of queries into a trie
    and execute it DFS with state checkpoint/restore at branch points, so
    a batch costs O(trie edges) device accesses instead of O(Σ |qᵢ|).

    Generic in the backing device ([Cache_set], the hwsim machine via the
    CacheQuery frontend, ...); results match sequential per-query
    execution whenever the device is deterministic from reset. *)

type ('k, 'r) ops = {
  reset : unit -> unit;
      (** bring the device to its fixed initial state.  A reset ends every
          checkpoint taken before it: a device may raise
          [Invalid_argument] when such a checkpoint is restored (hwsim
          does), and must never restore a wrong state. *)
  access : 'k -> 'r;  (** one access, returning its observation *)
  checkpoint : unit -> unit -> unit;
      (** capture the device state; the returned thunk restores it and
          may be called again until the next [reset].  Checkpoints nest:
          the executor restores them in stack order. *)
}

val run : ('k, 'r) ops -> 'k list list -> 'r list list
(** Execute a batch; the i-th result list belongs to the i-th query. *)

val plan_cost : 'k list list -> int * int
(** [(naive, shared)] access counts of a batch: naive per-query replay
    (Σ |qᵢ|) vs. prefix-sharing execution (trie edges). *)
