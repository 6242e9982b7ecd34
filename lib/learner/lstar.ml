(* Active learning of Mealy machines: Angluin's L* in its Mealy variant
   (Niese), with Rivest–Schapire counterexample processing.

   The learner maintains a reduced observation table:
   - S: access words, one per discovered state, with pairwise distinct rows;
   - E: distinguishing suffixes, always containing every single-input word
     (so transition outputs can be read off the table directly);
   - row(u): for each e in E, the output word the system produces for the
     suffix e after executing u.

   Counterexamples from the equivalence oracle are processed by binary
   search (Rivest–Schapire), adding a single distinguishing suffix to E per
   round, which keeps the table narrow even for machines with thousands of
   states. *)

type 'o result = {
  machine : 'o Cq_automata.Mealy.t;
  rounds : int;
  suffixes_added : int;
  row_cache_overflows : int;
  quotient : Quotient.stats option;
      (* merge statistics and witness when learning ran in quotient mode *)
}

(* The quotient decomposition of the current hypothesis, published to the
   conformance layer: representative states ([is_rep_state]) carry the
   full test suite, aliased states a spot-check (their behavior is the
   verified image of their representative's). *)
type quotient_view = { is_rep_state : bool array }

(* What the learner had achieved when the table failed to stabilise —
   enough for a supervisor (or a scripted campaign) to decide between
   "retry with a bigger budget" and "give up". *)
type divergence = {
  reason : string;
  states : int; (* representatives discovered so far *)
  queries : int; (* membership queries this learn issued *)
  elapsed : float; (* seconds since the learn started *)
}

exception Diverged of divergence

(* Internal: the quotient unfolding exceeded its state budget, usually
   because a wrong alias made the frame group explode.  Caught by the
   hypothesis builder, which repairs the table by un-aliasing the most
   recently derived alias edge and retrying. *)
exception Unfold_budget

let pp_divergence ppf d =
  Fmt.pf ppf "%s (%d states, %d queries, %a)" d.reason d.states d.queries
    Cq_util.Clock.pp_duration d.elapsed

(* The serializable view of the observation table: E, S and the cached
   rows.  Sessions persist it in snapshots; on resume the rows re-seed the
   row cache (they are a pure function of the oracle, so seeding never
   changes what is learned — it only skips recomputation). *)
type 'o table_state = {
  suffixes : int list list; (* E *)
  reps : int list array; (* S *)
  rows : (int list * 'o list list) list;
}

let learn ?(max_states = 1_000_000) ?max_row_cache ?expose_table ?seed_rows
    ?on_hypothesis ?(quotient : 'o Quotient.action option) ?on_quotient_view
    ~(oracle : 'o Moracle.t)
    ~(find_cex : 'o Cq_automata.Mealy.t -> int list option) () =
  let k = oracle.Moracle.n_inputs in
  if k < 1 then invalid_arg "Lstar.learn: empty input alphabet";
  (match quotient with
  | Some a ->
      if not (List.for_all (fun i -> i >= 0 && i < k) a.Quotient.sweep) then
        invalid_arg "Lstar.learn: quotient sweep uses inputs outside the alphabet"
  | None -> ());
  let t0 = Cq_util.Clock.mono () in
  (* Count the membership queries this learn issues, for the divergence
     payload (the conformance suite's queries go through [find_cex] and
     are not ours to count). *)
  let queries = ref 0 in
  let oracle =
    {
      oracle with
      Moracle.query =
        (fun w ->
          incr queries;
          oracle.Moracle.query w);
      query_batch =
        (fun ws ->
          queries := !queries + List.length ws;
          oracle.Moracle.query_batch ws);
    }
  in
  (* E always contains the singleton suffixes, in input order.  In quotient
     mode the signature suffix (the eviction sweep) comes right after, at
     column [k] — both blocks are stable because E only grows by
     appending, so the sweep entry of any row can be read off by index. *)
  let suffixes : int list list ref =
    ref
      (List.init k (fun i -> [ i ])
      @ match quotient with Some a -> [ a.Quotient.sweep ] | None -> [])
  in
  let sweep_col = k in
  let suffixes_added = ref 0 in
  let rounds = ref 0 in

  (* Table cells are interned: a learn fills hundreds of thousands of
     cells with a few dozen distinct output words (44 for LRU-6), so the
     row cache holds one list per distinct cell value instead of one per
     cell.  Rows still compare structurally. *)
  let cells = Hashtbl.create 64 in
  let cell c =
    let key = Cq_util.Deep.pack c in
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        Hashtbl.add cells key c; (* cq-lint: allow hashtbl-add: find_opt miss *)
        c
  in
  (* The output word of suffix [e] after access word [u]. *)
  let suffix_outputs u e =
    let outputs = oracle.Moracle.query (u @ e) in
    let drop = List.length u in
    cell (List.filteri (fun i _ -> i >= drop) outputs)
  in
  (* Row cache: rows of the same word are requested many times (closure
     checks, hypothesis construction).  E only ever grows by appending, so
     a cached row is extended in place with the missing columns instead of
     being recomputed.  [max_row_cache] bounds the table with
     clear-on-overflow semantics (dropped rows are recomputed on demand);
     overflows are reported in the result. *)
  (match max_row_cache with
  | Some n when n < 1 -> invalid_arg "Lstar.learn: max_row_cache must be >= 1"
  | _ -> ());
  let row_cache : (int list Cq_util.Deep.t, 'o list list) Hashtbl.t =
    Hashtbl.create 4096
  in
  (* Rows restored from a session snapshot.  They may carry more columns
     than the current E (they were taken against the crash-time E, which a
     deterministic replay re-derives suffix by suffix); [row] truncates to
     the live column count, so a seeded row is indistinguishable from a
     recomputed one. *)
  (match seed_rows with
  | Some rows ->
      List.iter
        (fun (u, r) -> Hashtbl.replace row_cache (Cq_util.Deep.pack u) r)
        rows
  | None -> ());
  let row_cache_overflows = ref 0 in
  let store_row key r =
    (match max_row_cache with
    | Some n
      when (not (Hashtbl.mem row_cache key)) && Hashtbl.length row_cache >= n
      ->
        Hashtbl.reset row_cache;
        Hashtbl.reset cells;
        incr row_cache_overflows
    | _ -> ());
    Hashtbl.replace row_cache key r
  in
  let row u =
    let key = Cq_util.Deep.pack u in
    let n_suffixes = List.length !suffixes in
    match Hashtbl.find_opt row_cache key with
    | Some r when List.length r = n_suffixes -> r
    | Some r when List.length r > n_suffixes ->
        (* Seeded from a snapshot taken against a larger E. *)
        List.filteri (fun i _ -> i < n_suffixes) r
    | cached ->
        let have = match cached with Some r -> List.length r | None -> 0 in
        let missing =
          List.filteri (fun i _ -> i >= have) !suffixes
          |> List.map (suffix_outputs u)
        in
        let r = (match cached with Some r -> r | None -> []) @ missing in
        store_row key r;
        r
  in
  (* Batch-complete the rows of [us] with a single oracle batch: collect
     every missing (access word, suffix) cell, issue one [query_batch] —
     which the layers below prefix-share — and extend the cached rows with
     the answers.  [row] then serves the closure pass from the cache. *)
  let fill_rows us =
    let n_suffixes = List.length !suffixes in
    let seen = Hashtbl.create 64 in
    let todo =
      List.filter_map
        (fun u ->
          let key = Cq_util.Deep.pack u in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key (); (* cq-lint: allow hashtbl-add: guarded by the mem test above *)
            let have =
              match Hashtbl.find_opt row_cache key with
              | Some r -> List.length r
              | None -> 0
            in
            if have >= n_suffixes then None else Some (u, key, have)
          end)
        us
    in
    let words =
      List.concat_map
        (fun (u, _, have) ->
          List.filteri (fun i _ -> i >= have) !suffixes
          |> List.map (fun e -> u @ e))
        todo
    in
    if words <> [] then begin
      let answers = ref (oracle.Moracle.query_batch words) in
      let take () =
        match !answers with
        | a :: rest ->
            answers := rest;
            a
        | [] -> assert false
      in
      List.iter
        (fun (u, key, have) ->
          let drop = List.length u in
          let cols =
            List.filteri (fun i _ -> i >= have) !suffixes
            |> List.map (fun _ ->
                   cell (List.filteri (fun i _ -> i >= drop) (take ())))
          in
          let existing =
            match Hashtbl.find_opt row_cache key with
            | Some r -> r
            | None -> []
          in
          (* An overflow clear while this batch was filling may have
             dropped the head columns; skip the store and let [row]
             recompute the full row on demand. *)
          if List.length existing = have then store_row key (existing @ cols))
        todo;
      assert (!answers = [])
    end
  in

  (* S: representatives (access words) with pairwise distinct rows. *)
  let reps : int list array ref = ref [||] in
  let rep_rows : ('o list list Cq_util.Deep.t, int) Hashtbl.t = Hashtbl.create 97 in

  (* Quotient mode: alias edges.  An extension whose row is a verified
     relabeling of representative [t]'s row is recorded here as
     [(t, witness)] instead of becoming a representative; the hypothesis
     unfolds these edges.  Aliases are derived against the current E, so
     they are wiped (and re-derived by the next [close]) whenever E
     grows.  [sig_buckets] indexes representatives by the orbit-constant
     key of their sweep signature, so a candidate merge only ever
     compares rows that could possibly be relabelings. *)
  let alias_rows : ('o list list Cq_util.Deep.t, int * int array) Hashtbl.t =
    Hashtbl.create 97
  in
  (* Creation-order log of alias edges: (row key, edge word, row).  A wrong
     alias can make the hypothesis unfolding's frame group explode — the
     composed witness permutations generate far more (rep, frame) pairs
     than the true machine has states.  When the unfolding trips its state
     budget we pop the most recently derived alias, promote its edge word
     to a representative, and rebuild; each pop strictly grows the
     representative set, so the retry loop terminates.  Wiped together
     with [alias_rows]. *)
  let alias_log : ('o list list Cq_util.Deep.t * int list * 'o list list) list ref
      =
    ref []
  in
  let sig_buckets : (string, int list ref) Hashtbl.t = Hashtbl.create 97 in
  let alias_attempts = ref 0 in
  let alias_queries = ref 0 in
  let max_alias_candidates = 8 in

  let diverge reason =
    raise
      (Diverged
         {
           reason;
           states = Array.length !reps;
           queries = !queries;
           elapsed = Cq_util.Clock.mono () -. t0;
         })
  in
  (* Hand the caller a live view of the observation table for session
     snapshots.  The getter copies mutable pieces, so a snapshot taken
     between oracle queries is a consistent value. *)
  (match expose_table with
  | Some f ->
      f (fun () ->
          {
            suffixes = !suffixes;
            reps = Array.copy !reps;
            rows =
              Hashtbl.fold
                (fun key r acc -> (Cq_util.Deep.unpack key, r) :: acc)
                row_cache [];
          })
  | None -> ());

  let add_rep u r =
    let idx = Array.length !reps in
    if idx >= max_states then diverge "state budget exhausted";
    reps := Array.append !reps [| u |];
    (* cq-lint: allow hashtbl-add: callers only add representatives for unseen rows *)
    Hashtbl.add rep_rows (Cq_util.Deep.pack r) idx;
    (match quotient with
    | Some a ->
        let key = a.Quotient.signature_key (List.nth r sweep_col) in
        (match Hashtbl.find_opt sig_buckets key with
        | Some bucket -> bucket := idx :: !bucket
        (* cq-lint: allow hashtbl-add: guarded by the find_opt above *)
        | None -> Hashtbl.add sig_buckets key (ref [ idx ]))
    | None -> ());
    idx
  in

  (* Can row [r] be merged into an existing representative?  Candidates
     come from the signature bucket; for each, the sweep signatures pin a
     unique witness permutation [p], which is then verified column by
     column: for every suffix [e], the system's answer after the
     extension must be the [p]-image of the representative's answer after
     [p^-1 e].  The verification words share the representative's access
     word as prefix, so the whole check is one prefix-shared batch.  A
     verified merge is still only a hypothesis about the suffixes E has
     not seen yet — conformance testing arbitrates, and a counterexample
     grows E, which wipes and re-derives every alias. *)
  let try_alias x r =
    match quotient with
    | None -> None
    | Some a ->
        let sig_row = List.nth r sweep_col in
        (match Hashtbl.find_opt sig_buckets (a.Quotient.signature_key sig_row) with
        | None -> None
        | Some bucket ->
            let attempt t =
              let u_t = !reps.(t) in
              let sig_rep = List.nth (row u_t) sweep_col in
              match a.Quotient.derive sig_rep sig_row with
              | None -> None
              | Some p when Quotient.is_identity p ->
                  (* Identity witness means equal rows, which [rep_rows]
                     would already have caught. *)
                  None
              | Some p ->
                  incr alias_attempts;
                  let inv = Quotient.invert p in
                  let words =
                    List.map
                      (fun e -> u_t @ List.map (a.Quotient.map_input inv) e)
                      !suffixes
                  in
                  alias_queries := !alias_queries + List.length words;
                  let answers = oracle.Moracle.query_batch words in
                  let drop = List.length u_t in
                  let ok =
                    List.for_all2
                      (fun entry answer ->
                        let tail =
                          List.filteri (fun i _ -> i >= drop) answer
                        in
                        List.length tail = List.length entry
                        && List.for_all2
                             (fun x y -> a.Quotient.map_output p y = x)
                             entry tail)
                      r answers
                  in
                  if not ok then None
                  else begin
                    (* Depth-1 confirmation.  The sweep signature of a
                       single state can underdetermine the witness when
                       the sweep does not name every line (PLRU at
                       assoc 12 is the first zoo member where this
                       bites): [derive] then guesses the unpinned part
                       of [p], the guess survives the row check above,
                       and the wrong alias later makes the unfolding's
                       frame group explode.  Confirm [p] one step
                       deeper: for every input [i], the sweep signature
                       of the extension's [i]-successor must be the
                       [p]-image of the representative's
                       [p^-1 i]-successor's sweep.  Both sides are
                       prefix-shared batches. *)
                    let sweep = a.Quotient.sweep in
                    let inputs = List.init k (fun i -> i) in
                    let ext_words =
                      List.map (fun i -> x @ (i :: sweep)) inputs
                    in
                    let rep_words =
                      List.map
                        (fun i ->
                          u_t
                          @ List.map
                              (a.Quotient.map_input inv)
                              (i :: sweep))
                        inputs
                    in
                    alias_queries := !alias_queries + (2 * k);
                    let ext_ans = oracle.Moracle.query_batch ext_words in
                    let rep_ans = oracle.Moracle.query_batch rep_words in
                    let drop_x = List.length x in
                    let confirmed =
                      List.for_all2
                        (fun ea ra ->
                          let et =
                            List.filteri (fun i _ -> i >= drop_x) ea
                          in
                          let rt =
                            List.filteri (fun i _ -> i >= drop) ra
                          in
                          List.length et = List.length rt
                          && List.for_all2
                               (fun x y -> a.Quotient.map_output p y = x)
                               et rt)
                        ext_ans rep_ans
                    in
                    if confirmed then Some (t, p) else None
                  end
            in
            let rec first n = function
              | [] -> None
              | _ when n <= 0 -> None
              | t :: rest -> (
                  match attempt t with
                  | Some _ as hit -> hit
                  | None -> first (n - 1) rest)
            in
            first max_alias_candidates !bucket)
  in

  let rebuild_table () =
    Hashtbl.reset rep_rows;
    Hashtbl.reset alias_rows;
    alias_log := [];
    Hashtbl.reset sig_buckets;
    let old = !reps in
    reps := [||];
    (* Prefetch the new column of every representative in one batch. *)
    fill_rows (Array.to_list old);
    Array.iter
      (fun u ->
        let r = row u in
        (* Distinct representatives may collapse after E changes only if the
           oracle is inconsistent; with a growing E rows can only get finer,
           so a collision indicates divergence. *)
        if Hashtbl.mem rep_rows (Cq_util.Deep.pack r) then
          diverge "representative rows collapsed"
        else ignore (add_rep u r))
      old
  in

  (* The representative each one-step extension's row classified to, at
     [rep * k + input], recorded by [close] as it classifies (-1 for an
     alias edge).  [close] re-classifies every extension against the
     current E, so after it the record is the closed table's transition
     function and direct-mode [build_hypothesis] reads it off instead of
     re-hashing every extension row. *)
  let ext_target = ref (Array.make (4 * k) (-1)) in
  let record_target t i target =
    let idx = (t * k) + i in
    if idx >= Array.length !ext_target then begin
      let a = Array.make (2 * (idx + 1)) (-1) in
      Array.blit !ext_target 0 a 0 (Array.length !ext_target);
      ext_target := a
    end;
    !ext_target.(idx) <- target
  in

  (* Close the table: every one-step extension of a representative must have
     the row of some representative.  A single pass over the growing
     representative array suffices: appended representatives are themselves
     processed before the loop ends. *)
  let close () =
    let s = ref 0 in
    while !s < Array.length !reps do
      (* One BFS wave at a time: batch-fill the rows of every one-step
         extension of the current frontier before classifying them, so the
         whole wave goes to the oracle as a single prefix-shared batch. *)
      let hi = Array.length !reps in
      let wave = ref [] in
      for idx = hi - 1 downto !s do
        for i = k - 1 downto 0 do
          wave := (!reps.(idx) @ [ i ]) :: !wave
        done
      done;
      fill_rows !wave;
      while !s < hi do
        let u = !reps.(!s) in
        for i = 0 to k - 1 do
          let r = row (u @ [ i ]) in
          let key = Cq_util.Deep.pack r in
          let target =
            match Hashtbl.find_opt rep_rows key with
            | Some t -> t
            | None when Hashtbl.mem alias_rows key -> -1
            | None -> (
                match try_alias (u @ [ i ]) r with
                | Some (t, p) ->
                    (* cq-lint: allow hashtbl-add: guarded by the mem tests above *)
                    Hashtbl.add alias_rows key (t, p);
                    alias_log := (key, u @ [ i ], r) :: !alias_log;
                    -1
                | None -> add_rep (u @ [ i ]) r)
          in
          record_target !s i target
        done;
        incr s
      done
    done
  in

  (* Access word and witness frame of every hypothesis state, refreshed by
     each [build_hypothesis].  In direct mode states are representatives
     and these are just [!reps] / identities; in quotient mode they come
     from the unfolding below and feed Rivest–Schapire. *)
  let hyp_access : int list array ref = ref [||] in
  let hyp_perm : int array array ref = ref [||] in
  let hyp_rep : int array ref = ref [||] in
  let last_qstats : Quotient.stats option ref = ref None in

  (* Singleton output of representative [t] on input [i], read off the
     first k table columns. *)
  let rep_out t i =
    match List.nth (row !reps.(t)) i with
    | [ o ] -> o
    | _ -> assert false
  in

  let build_hypothesis_direct () =
    let n = Array.length !reps in
    let next = Array.make_matrix n k 0 in
    (* Outputs: entry of suffix [i] (singleton suffixes are the first k
       columns of the table, in input order). *)
    let out =
      Array.init n (fun s ->
          let u = !reps.(s) in
          Array.init k (fun i ->
              match suffix_outputs u [ i ] with
              | [ o ] -> o
              | _ -> assert false))
    in
    for s = 0 to n - 1 do
      for i = 0 to k - 1 do
        let s' = !ext_target.((s * k) + i) in
        assert (s' >= 0) (* table is closed *);
        next.(s).(i) <- s'
      done
    done;
    hyp_access := !reps;
    hyp_perm := [||];
    Cq_automata.Mealy.make ~init:0 ~n_inputs:k ~next ~out
  in

  (* Quotient mode: the table describes a permutation-labeled quotient
     machine — per representative [t] and input [j], either a direct edge
     to [t'] or an alias edge to [(t', p)] claiming the target behaves as
     [t'] conjugated by [p].  The hypothesis is its unfolding: states are
     the reachable pairs (t, pi), with

       delta((t, pi), i)  =  (t', pi)        if edge(t, pi^-1 i) direct
                          =  (t', pi . p)    if edge(t, pi^-1 i) aliased by p
       out((t, pi), i)    =  pi(out_t(pi^-1 i))

     Each unfolded state keeps its BFS access word (for Rivest–Schapire)
     and its frame pi (for the suffix pull-back fallback and the witness
     triples handed to Automaton_check). *)
  let build_hypothesis_quotient a =
    let nreps = Array.length !reps in
    (* Per-representative transitions in quotient form. *)
    let qnext =
      Array.init nreps (fun t ->
          Array.init k (fun j ->
              let r = row (!reps.(t) @ [ j ]) in
              let key = Cq_util.Deep.pack r in
              match Hashtbl.find_opt rep_rows key with
              | Some t' -> (t', None)
              | None -> (
                  match Hashtbl.find_opt alias_rows key with
                  | Some (t', p) -> (t', Some p)
                  | None -> assert false (* table is closed *))))
    in
    let index : (int list Cq_util.Deep.t, int) Hashtbl.t =
      Hashtbl.create 1024
    in
    let info : (int, int * int array * int list) Hashtbl.t =
      Hashtbl.create 1024
    in
    let n = ref 0 in
    let intern t p acc =
      let key = Cq_util.Deep.pack (t :: Array.to_list p) in
      match Hashtbl.find_opt index key with
      | Some i -> i
      | None ->
          let i = !n in
          if i >= max_states then raise Unfold_budget;
          incr n;
          (* Identity-frame states are exactly the table's representatives;
             use their table-verified access words (Rivest–Schapire's
             repairs reason about rows, so its access words must be the
             ones the table classified).  Other frames only exist in the
             unfolding, so the BFS word is the best available. *)
          let acc = if Quotient.is_identity p then !reps.(t) else acc in
          (* cq-lint: allow hashtbl-add: guarded by the find_opt above *)
          Hashtbl.add index key i;
          (* cq-lint: allow hashtbl-add: i is fresh *)
          Hashtbl.add info i (t, p, acc);
          i
    in
    let next_rows : (int, int array) Hashtbl.t = Hashtbl.create 1024 in
    let out_rows : (int, 'o array) Hashtbl.t = Hashtbl.create 1024 in
    ignore (intern 0 (Quotient.identity a.Quotient.assoc) []);
    let i = ref 0 in
    while !i < !n do
      let t, p, acc = Hashtbl.find info !i in
      let inv = Quotient.invert p in
      let nr =
        Array.init k (fun ii ->
            let j = a.Quotient.map_input inv ii in
            let t', po = qnext.(t).(j) in
            let p' =
              match po with None -> p | Some q -> Quotient.compose p q
            in
            intern t' p' (acc @ [ ii ]))
      in
      let orow =
        Array.init k (fun ii ->
            let j = a.Quotient.map_input inv ii in
            a.Quotient.map_output p (rep_out t j))
      in
      Hashtbl.replace next_rows !i nr;
      Hashtbl.replace out_rows !i orow;
      incr i
    done;
    let nn = !n in
    let next = Array.init nn (fun s -> Hashtbl.find next_rows s) in
    let out = Array.init nn (fun s -> Hashtbl.find out_rows s) in
    hyp_access :=
      Array.init nn (fun s ->
          let _, _, acc = Hashtbl.find info s in
          acc);
    hyp_perm :=
      Array.init nn (fun s ->
          let _, p, _ = Hashtbl.find info s in
          p);
    hyp_rep :=
      Array.init nn (fun s ->
          let t, _, _ = Hashtbl.find info s in
          t);
    let is_rep = Array.init nn (fun s -> Quotient.is_identity !hyp_perm.(s)) in
    (* Witness triples for Automaton_check: state [s] = (t, pi) with a
       non-identity frame behaves as the anchor state (t, id) conjugated
       by pi — when that anchor was itself reached.  A bounded sample
       keeps the anchored product walks affordable downstream. *)
    let witness = ref [] in
    let n_witness = ref 0 in
    (try
       for s = nn - 1 downto 0 do
         let t, p, _ = Hashtbl.find info s in
         if not (Quotient.is_identity p) then begin
           let anchor =
             Hashtbl.find_opt index
               (Cq_util.Deep.pack
                  (t :: Array.to_list (Quotient.identity a.Quotient.assoc)))
           in
           match anchor with
           | Some s0 ->
               witness := (s, s0, Quotient.perm_to_list p) :: !witness;
               incr n_witness;
               if !n_witness >= 48 then raise Exit
           | None -> ()
         end
       done
     with Exit -> ());
    last_qstats :=
      Some
        {
          Quotient.reps = nreps;
          states = nn;
          aliases = Hashtbl.length alias_rows;
          alias_attempts = !alias_attempts;
          alias_queries = !alias_queries;
          witness = !witness;
        };
    (match on_quotient_view with
    | Some f -> f { is_rep_state = is_rep }
    | None -> ());
    Cq_automata.Mealy.make ~init:0 ~n_inputs:k ~next ~out
  in

  let build_hypothesis () =
    match quotient with
    | None -> build_hypothesis_direct ()
    | Some a ->
        (* Frame-group guard.  Every frame of the unfolding is a product
           of alias witness permutations along some path, so the
           unfolding has at most |reps| x |G| states, where G is the
           subgroup of S_assoc generated by the witnesses.  A wrong
           alias whose witness lands outside the policy's true symmetry
           group makes |G| explode toward assoc! — and the unfolding
           with it.  Before paying for an unfolding, close G with an
           early exit at [max_states / |reps|]: if the closure
           overflows, the first alias (in creation order) whose witness
           pushed it past the cap is the suspect — promote its edge word
           to a representative, re-close the table and retry.  Each
           promotion strictly grows the representative set (and
           [add_rep] enforces the state budget on representatives), so
           this terminates. *)
        let perm_key (p : int array) =
          let b = Bytes.create (Array.length p) in
          Array.iteri (fun i v -> Bytes.unsafe_set b i (Char.unsafe_chr v)) p;
          Bytes.unsafe_to_string b
        in
        (* Aliases still present, oldest first, paired with their
           witnesses.  [alias_log] is a pure creation-order record;
           entries whose key a split already removed are skipped. *)
        let live_aliases () =
          List.rev
            (List.filter_map
               (fun ((key, _, _) as entry) ->
                 match Hashtbl.find_opt alias_rows key with
                 | Some (_, p) -> Some (entry, p)
                 | None -> None)
               !alias_log)
        in
        (* Is the subgroup generated by the first [upto] witnesses of
           size at most [cap]?  BFS from the identity, right-multiplying
           by generators (a finite set of products closes into the
           subgroup without explicit inverses), bailing out as soon as
           the cap is crossed. *)
        let closure_fits aliases upto cap =
          let seen = Hashtbl.create 1024 in
          let idp = Quotient.identity a.Quotient.assoc in
          Hashtbl.replace seen (perm_key idp) ();
          let n_seen = ref 1 in
          let frontier = Queue.create () in
          Queue.add idp frontier;
          let gens = Array.init upto (fun i -> snd aliases.(i)) in
          try
            while not (Queue.is_empty frontier) do
              let x = Queue.pop frontier in
              Array.iter
                (fun g ->
                  let y = Quotient.compose x g in
                  let ky = perm_key y in
                  if not (Hashtbl.mem seen ky) then begin
                    Hashtbl.replace seen ky ();
                    incr n_seen;
                    if !n_seen > cap then raise Exit;
                    Queue.add y frontier
                  end)
                gens
            done;
            true
          with Exit -> false
        in
        let group_culprit () =
          let aliases = Array.of_list (live_aliases ()) in
          let n = Array.length aliases in
          if n = 0 then None
          else begin
            let cap = max 1 (max_states / max 1 (Array.length !reps)) in
            if closure_fits aliases n cap then None
            else begin
              (* Binary-search the shortest creation-order prefix whose
                 closure overflows.  Its last witness is the pivot: the
                 true symmetry group absorbs its own elements, so the
                 first generator that makes the closure jump past the
                 cap is (almost always) the one outside it.  Promoting a
                 pivotal good alias is possible but merely costs queries;
                 the retry loop stays sound either way. *)
              let lo = ref 1 and hi = ref n in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if closure_fits aliases mid cap then lo := mid + 1
                else hi := mid
              done;
              let entry, _ = aliases.(!lo - 1) in
              Some entry
            end
          end
        in
        let promote (key, u, r) =
          Hashtbl.remove alias_rows key;
          ignore (add_rep u r);
          close ()
        in
        let rec attempt () =
          match group_culprit () with
          | Some entry ->
              if Sys.getenv_opt "CQ_DEBUG_QUOTIENT" <> None then
                Printf.eprintf "[frame-group] reps=%d aliases=%d: promoting\n%!"
                  (Array.length !reps) (Hashtbl.length alias_rows);
              promote entry;
              attempt ()
          | None -> (
              (* The guard bounds the unfolding by |reps| x cap <=
                 max_states, so the budget below should be unreachable;
                 kept as a fallback in case the bound is ever loosened. *)
              try build_hypothesis_quotient a
              with Unfold_budget -> (
                match List.rev (live_aliases ()) with
                | [] -> diverge "state budget exhausted (unfolding)"
                | (entry, _) :: _ ->
                    promote entry;
                    attempt ()))
        in
        attempt ()
  in

  (* Rivest–Schapire: find a distinguishing suffix from counterexample [w]
     and add it to E. *)
  let process_cex hyp w =
    (* The binary search below evaluates the hypothesis on O(log |w|)
       suffixes; compile it once and use the allocation-free walkers. *)
    let chyp = Cq_automata.Mealy.compile hyp in
    (* Truncate w at the first output mismatch. *)
    let o_out = oracle.Moracle.query w in
    match Cq_automata.Mealy.first_disagreement chyp w o_out with
    | None -> false (* not actually a counterexample *)
    | Some idx ->
        let w = List.filteri (fun i _ -> i <= idx) w in
        let m = List.length w in
        let prefix j = List.filteri (fun i _ -> i < j) w in
        let suffix_from j = List.filteri (fun i _ -> i >= j) w in
        let state_at j = Cq_automata.Mealy.compiled_state_after chyp (prefix j) in
        let access j = !hyp_access.(state_at j) in
        (* A(j): the oracle agrees with the hypothesis when the length-j
           prefix is replaced by the access word of the state it reaches. *)
        let agrees j =
          let a = access j in
          let v = suffix_from j in
          let o = suffix_outputs a v in
          Cq_automata.Mealy.agrees_from chyp (state_at j) v o
        in
        (* A(0) = false (genuine cex), A(m) = true (empty suffix).  Binary
           search for a crossing ¬A(j) ∧ A(j+1). *)
        let lo = ref 0 and hi = ref m in
        (* invariant: ¬A(lo), A(hi) *)
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if agrees mid then hi := mid else lo := mid
        done;
        let j = !lo in
        let v = suffix_from (j + 1) in
        let add_suffix v' =
          if List.mem v' !suffixes then false
          else begin
            suffixes := !suffixes @ [ v' ];
            incr suffixes_added;
            true
          end
        in
        (* Quotient-mode repair when suffixes cannot refine the table: a
           wrong merge that is consistent with every available suffix
           (the composite frame of an unfolded state is never verified
           directly, only single alias edges are).  Force-split the first
           suspect alias on the counterexample path — the crossing edge,
           then the access words around it, then the rest of the path —
           into a real representative.  Representatives only grow, so
           this makes strict progress and cannot loop; honest merges
           elsewhere survive. *)
        let split_aliases () =
          match quotient with
          | None -> false
          | Some a ->
              (* The alias keys live in the representative's frame, so
                 each path step (state (t, pi), input i) maps to the
                 rep-frame edge word reps(t) @ [pi^-1 i]. *)
              let edge jj =
                let s = state_at jj in
                if s >= Array.length !hyp_rep then None
                else
                  let t = !hyp_rep.(s) in
                  let inv = Quotient.invert !hyp_perm.(s) in
                  Some (!reps.(t) @ [ a.Quotient.map_input inv (List.nth w jj) ])
              in
              let candidates =
                List.filter_map edge (j :: List.init m Fun.id)
              in
              let rec go = function
                | [] -> false
                | x :: rest ->
                    let r = row x in
                    let key = Cq_util.Deep.pack r in
                    if Hashtbl.mem alias_rows key then begin
                      Hashtbl.remove alias_rows key;
                      ignore (add_rep x r);
                      true
                    end
                    else go rest
              in
              go candidates
        in
        if v = [] then
          (* The outputs themselves disagree at the crossing: in direct
             mode that is oracle inconsistency; in quotient mode it is a
             wrong composite frame mislabeling an edge output. *)
          if split_aliases () then true
          else diverge "empty distinguishing suffix"
        else if add_suffix v then true
        else begin
          (* The crossing may expose a wrong alias whose composite frame
             E never verified directly; pulling the suffix back into the
             representative's frame turns it into a column the next alias
             re-derivation does check. *)
          let pulled =
            match quotient with
            | None -> []
            | Some a ->
                List.filter_map
                  (fun s ->
                    if s < Array.length !hyp_perm then
                      let inv = Quotient.invert !hyp_perm.(s) in
                      Some (List.map (a.Quotient.map_input inv) v)
                    else None)
                  [ state_at (j + 1); state_at j ]
          in
          if List.exists add_suffix pulled then true
          else if split_aliases () then true
          else diverge "distinguishing suffix already in E"
        end
  in

  (* Main loop.  A counterexample is re-processed against every refined
     hypothesis until the hypothesis agrees with it; only then do we pay
     for another conformance-testing round. *)
  ignore (add_rep [] (row []));
  close ();
  let result = ref None in
  let pending = ref None in
  while !result = None do
    let hyp = build_hypothesis () in
    (match on_hypothesis with Some f -> f hyp | None -> ());
    let progressed =
      match !pending with
      | Some w when process_cex hyp w ->
          rebuild_table ();
          close ();
          true
      | _ ->
          pending := None;
          false
    in
    if not progressed then begin
      incr rounds;
      match find_cex hyp with
      | None -> result := Some hyp
      | Some w ->
          if not (process_cex hyp w) then
            diverge "equivalence oracle returned a spurious counterexample";
          pending := Some w;
          rebuild_table ();
          close ()
    end
  done;
  match !result with
  | Some machine ->
      let machine, qstats =
        match (quotient, !last_qstats) with
        | Some _, Some st ->
            (* The unfolding can in principle duplicate a state whose
               residual happens to be self-symmetric (the conformance
               oracle cannot separate behaviorally equal states).  The
               machine is still correct; minimize it so downstream
               minimality checks hold, and drop the witness if state
               indices moved. *)
            let mmin = Cq_automata.Mealy.minimize machine in
            if Cq_automata.Mealy.n_states mmin < Cq_automata.Mealy.n_states machine
            then
              ( mmin,
                Some
                  {
                    st with
                    Quotient.states = Cq_automata.Mealy.n_states mmin;
                    witness = [];
                  } )
            else (machine, Some st)
        | _ -> (machine, None)
      in
      {
        machine;
        rounds = !rounds;
        suffixes_added = !suffixes_added;
        row_cache_overflows = !row_cache_overflows;
        quotient = qstats;
      }
  | None -> assert false
