(* One level of the simulated cache hierarchy: a lazily-allocated collection
   of cache sets, each holding tag content (line addresses) plus one or two
   replacement-policy instances.

   Adaptive levels (the L3s, cf. Appendix B) distinguish three set kinds:
   leader-A sets run the "thrash-vulnerable" fixed policy, leader-B sets the
   "thrash-resistant" one, and follower sets track *both* policy instances
   and take the victim from whichever the global PSEL counter currently
   selects.  Leader-B sets can additionally be noisy (Haswell), re-touching
   freshly installed ways at random, which makes them nondeterministic and
   — as in the paper — unlearnable.

   Checkpoints are journaled: while one is live, the first write to a set
   in the current generation saves that set's content and policy state,
   and a restore undoes exactly the saved sets.  Both operations cost
   O(sets written), not O(sets ever allocated). *)

type set_kind = Plain | Leader_a | Leader_b | Follower

let set_kind_to_string = function
  | Plain -> "plain"
  | Leader_a -> "leader-A"
  | Leader_b -> "leader-B"
  | Follower -> "follower"

type set_state = {
  content : int array; (* line address per way; [invalid] = empty way *)
  inst_a : Cq_policy.Instance.t;
  inst_b : Cq_policy.Instance.t option; (* only for follower sets *)
  kind : set_kind;
  mutable saved_gen : int; (* journal generation this set was saved in *)
}

let invalid = -1

(* A set as it was before its first write in some generation. *)
type entry = {
  set : set_state;
  saved_content : int array;
  restore_a : unit -> unit;
  restore_b : unit -> unit;
}

type t = {
  level : Cpu_model.level;
  spec : Cpu_model.level_spec;
  effective_assoc : int; (* = spec.assoc unless reduced via CAT *)
  sets : (int, set_state) Hashtbl.t;
  prng : Cq_util.Prng.t;
  mutable fills : int;
  mutable evictions : int;
  (* The journal, newest entry first.  A checkpoint is the journal value
     at the time it was taken; restoring pops entries until the journal is
     physically that value again. *)
  mutable journal : entry list;
  mutable live : bool; (* some checkpoint is live: writes are journaled *)
  mutable gen : int; (* bumped by every checkpoint and restore *)
  mutable epoch : int; (* bumped by [end_checkpoints] *)
}

let create ?(effective_assoc = -1) ~prng level (spec : Cpu_model.level_spec) =
  let effective_assoc = if effective_assoc < 0 then spec.assoc else effective_assoc in
  if effective_assoc < 1 || effective_assoc > spec.assoc then
    invalid_arg "Cache_level.create: bad effective associativity";
  {
    level;
    spec;
    effective_assoc;
    sets = Hashtbl.create 997;
    prng;
    fills = 0;
    evictions = 0;
    journal = [];
    live = false;
    gen = 0;
    epoch = 0;
  }

let effective_assoc t = t.effective_assoc
let level t = t.level
let spec t = t.spec

let key t ~slice ~set = (slice * t.spec.sets_per_slice) + set

let kind_of t ~slice ~set =
  match t.spec.policy with
  | Cpu_model.Fixed _ -> Plain
  | Cpu_model.Adaptive a ->
      if a.leader_a ~slice ~set then Leader_a
      else if a.leader_b ~slice ~set then Leader_b
      else Follower

let new_set t ~slice ~set =
  let assoc = t.effective_assoc in
  let kind = kind_of t ~slice ~set in
  let inst_a, inst_b =
    match t.spec.policy with
    | Cpu_model.Fixed make -> (Cq_policy.Instance.create (make assoc), None)
    | Cpu_model.Adaptive a -> (
        match kind with
        | Leader_a -> (Cq_policy.Instance.create (a.policy_a assoc), None)
        | Leader_b -> (Cq_policy.Instance.create (a.policy_b assoc), None)
        | Follower | Plain ->
            ( Cq_policy.Instance.create (a.policy_a assoc),
              Some (Cq_policy.Instance.create (a.policy_b assoc)) ))
  in
  (* A set allocated while a checkpoint is live is pristine, which is the
     state it had at that checkpoint: its first write journals it as such. *)
  { content = Array.make assoc invalid; inst_a; inst_b; kind; saved_gen = -1 }

let get_set t ~slice ~set =
  let k = key t ~slice ~set in
  match Hashtbl.find t.sets k with
  | s -> s
  | exception Not_found ->
      let s = new_set t ~slice ~set in
      Hashtbl.add t.sets k s; (* cq-lint: allow hashtbl-add: find miss *)
      s

let kind t ~slice ~set = (get_set t ~slice ~set).kind

let no_restore () = ()

(* Save [st] before its first write of the current generation. *)
let journal t st =
  if t.live && st.saved_gen <> t.gen then begin
    st.saved_gen <- t.gen;
    let entry =
      {
        set = st;
        saved_content = Array.copy st.content;
        restore_a = Cq_policy.Instance.checkpoint st.inst_a;
        restore_b =
          (match st.inst_b with
          | Some b -> Cq_policy.Instance.checkpoint b
          | None -> no_restore);
      }
    in
    t.journal <- entry :: t.journal
  end

(* The way of [content] holding [line], or -1.  Typed, so the compare is
   an integer compare rather than a polymorphic-equality call. *)
let way_of (content : int array) (line : int) =
  let way = ref (-1) and w = ref 0 in
  while !way < 0 && !w < Array.length content do
    if Array.unsafe_get content !w = line then way := !w;
    incr w
  done;
  !way

let find t ~slice ~set ~line = way_of (get_set t ~slice ~set).content line

let touch_instances st way =
  Cq_policy.Instance.touch st.inst_a way;
  match st.inst_b with Some b -> Cq_policy.Instance.touch b way | None -> ()

let hit t ~slice ~set ~way =
  let st = get_set t ~slice ~set in
  journal t st;
  touch_instances st way

let noisy_b t =
  match t.spec.policy with
  | Cpu_model.Adaptive { noisy_b; _ } -> noisy_b
  | Cpu_model.Fixed _ -> false

(* Install [line]; [use_b] selects the secondary policy's victim in follower
   sets (driven by the machine's PSEL counter).  Returns the evicted line,
   or -1, so the machine can maintain inclusivity. *)
let fill t ~slice ~set ~line ~use_b =
  let st = get_set t ~slice ~set in
  journal t st;
  t.fills <- t.fills + 1;
  let way = way_of st.content invalid in
  if way >= 0 then begin
    st.content.(way) <- line;
    if t.spec.fill_touches_policy then touch_instances st way;
    invalid
  end
  else begin
    t.evictions <- t.evictions + 1;
    let victim_a = Cq_policy.Instance.evict st.inst_a in
    let victim =
      match st.inst_b with
      | Some b ->
          let victim_b = Cq_policy.Instance.evict b in
          if use_b then victim_b else victim_a
      | None -> victim_a
    in
    let evicted = st.content.(victim) in
    st.content.(victim) <- line;
    (* Haswell's thrash-resistant leader sets behave nondeterministically:
       model this as a random extra touch of the installed way. *)
    if st.kind = Leader_b && noisy_b t && Cq_util.Prng.bool t.prng 0.25 then
      touch_instances st victim;
    evicted
  end

let invalidate t ~slice ~set ~line =
  match Hashtbl.find t.sets (key t ~slice ~set) with
  | exception Not_found -> ()
  | st ->
      let way = way_of st.content line in
      if way >= 0 then begin
        journal t st;
        st.content.(way) <- invalid
      end

(* wbinvd: drop all cached content.  Replacement state is *not* reset —
   real hardware leaves the (now stale) replacement metadata in place. *)
let flush_content t =
  Hashtbl.iter
    (fun _ st ->
      journal t st;
      Array.fill st.content 0 (Array.length st.content) invalid)
    t.sets

(* A checkpoint is the journal as it stands plus the level's scalar state.
   Its restore thunk undoes the entries pushed since, newest first, and
   stays reusable: the next generation re-journals whatever is written
   after it.  A reset ([end_checkpoints]) ends every checkpoint, and so
   does restoring an older one (the entries it pops are gone); restoring
   an ended checkpoint raises instead of restoring a wrong state. *)
let checkpoint t =
  t.live <- true;
  t.gen <- t.gen + 1;
  let mark = t.journal and epoch = t.epoch in
  let fills = t.fills and evictions = t.evictions in
  let restore_prng = Cq_util.Prng.checkpoint t.prng in
  fun () ->
    let rec reaches = function
      | j when j == mark -> true
      | [] -> false
      | _ :: rest -> reaches rest
    in
    if epoch <> t.epoch || not (reaches t.journal) then
      invalid_arg "Cache_level: restoring a checkpoint that has ended";
    let rec undo j =
      if j != mark then
        match j with
        | [] -> assert false
        | e :: rest ->
            Array.blit e.saved_content 0 e.set.content 0
              (Array.length e.saved_content);
            e.restore_a ();
            e.restore_b ();
            undo rest
    in
    undo t.journal;
    t.journal <- mark;
    t.gen <- t.gen + 1;
    t.fills <- fills;
    t.evictions <- evictions;
    restore_prng ()

let end_checkpoints t =
  t.journal <- [];
  t.live <- false;
  t.epoch <- t.epoch + 1

(* Test-only introspection. *)
let peek_content t ~slice ~set =
  Array.map
    (fun line -> if line = invalid then None else Some line)
    (get_set t ~slice ~set).content

let fills t = t.fills
let evictions t = t.evictions
