(* The prefix-sharing batch executor.

   A batch of queries with shared prefixes — the shape Polca's findEvicted
   fan-out and the L* observation table produce — is folded into a trie
   and executed depth-first: each trie edge is one real block access, and
   branch points are handled by snapshotting the cache state and restoring
   it between children instead of replaying the prefix from reset.  A
   batch of N queries then costs O(trie edges) accesses instead of
   O(Σ |qᵢ|), which is the §5 batching idea pushed below the memo table.

   The executor is generic in the backing device: it only needs reset,
   a single-access step, and a checkpoint primitive returning a restore
   thunk.  [Cq_cache.Oracle.of_cache_set] instantiates it over the
   software-simulated set; the CacheQuery frontend instantiates it over
   the full hardware simulator.  Results are byte-identical to sequential
   per-query execution whenever the device is deterministic from reset —
   exactly the property reset discovery validates. *)

type ('k, 'r) ops = {
  reset : unit -> unit;
      (* bring the device to the fixed initial state; ends every earlier
         checkpoint (restoring one may raise Invalid_argument) *)
  access : 'k -> 'r;  (* one access, returning its observation *)
  checkpoint : unit -> unit -> unit;  (* capture state; thunk restores it *)
}

(* Children are kept in insertion (batch) order so execution order — and
   with it any access-counting telemetry — is deterministic. *)
type ('k, 'r) node = {
  mutable children : ('k * ('k, 'r) node) list;  (* reversed *)
  mutable ends_here : int list;  (* indices of queries ending at this node *)
}

let new_node () = { children = []; ends_here = [] }

let build queries =
  let root = new_node () in
  List.iteri
    (fun qi blocks ->
      let node = ref root in
      List.iter
        (fun b ->
          let child =
            match List.assoc_opt b !node.children with
            | Some c -> c
            | None ->
                let c = new_node () in
                !node.children <- (b, c) :: !node.children;
                c
          in
          node := child)
        blocks;
      !node.ends_here <- qi :: !node.ends_here)
    queries;
  root

(* Number of trie edges = block accesses a prefix-sharing execution
   performs, vs. the naive replay cost Σ |qᵢ|.  Exposed so oracle
   statistics can report the accesses saved by sharing. *)
let plan_cost queries =
  let root = build queries in
  let rec edges node =
    List.fold_left (fun acc (_, c) -> acc + 1 + edges c) 0 node.children
  in
  let naive = List.fold_left (fun acc q -> acc + List.length q) 0 queries in
  (naive, edges root)

let run_trie ops queries =
  let root = build queries in
  let n = List.length queries in
  let results = Array.make n [] in
  let rec visit node rev_outcomes =
    List.iter (fun qi -> results.(qi) <- List.rev rev_outcomes) node.ends_here;
    let rec each = function
      | [] -> ()
      | [ (b, child) ] ->
          (* Last child: nothing left to return to, skip the checkpoint. *)
          let r = ops.access b in
          visit child (r :: rev_outcomes)
      | (b, child) :: rest ->
          let restore = ops.checkpoint () in
          let r = ops.access b in
          visit child (r :: rev_outcomes);
          restore ();
          each rest
    in
    each (List.rev node.children)
  in
  ops.reset ();
  visit root [];
  Array.to_list results

let run ops queries =
  if Cq_util.Trace.enabled () then
    Cq_util.Trace.with_span ~cat:"batch"
      ~args:[ ("queries", string_of_int (List.length queries)) ]
      "batch.run"
      (fun () -> run_trie ops queries)
  else run_trie ops queries
