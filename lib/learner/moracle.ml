(* Membership oracle for Mealy-machine learning: answers *output queries*,
   i.e. maps an input word to the output word produced from the (fixed)
   initial state of the system under learning.

   This is the interface between the L* learner and Polca: Polca implements
   [query] by translating policy inputs into cache probes (Algorithm 1).

   [query_batch] answers several independent words at once.  The learner
   collects the missing observation-table cells of a closure round and
   fills them with one batch, which lets the layers below (Polca, the
   cache oracle) batch and prefix-share the induced block traces. *)

type 'o t = {
  n_inputs : int;
  query : int list -> 'o list;
  query_batch : int list list -> 'o list list;
}

exception Inconsistent of string

(* Smart constructor: derives the sequential [query_batch] fallback. *)
let make ?query_batch ~n_inputs query =
  {
    n_inputs;
    query;
    query_batch =
      (match query_batch with Some qb -> qb | None -> List.map query);
  }

(* Registry-backed accounting: fields are named counters in a
   Cq_util.Metrics registry, plus a latency histogram over the
   membership queries that actually reach the system under learning. *)
type stats = {
  queries : Cq_util.Metrics.counter; (* queries reaching the system *)
  symbols : Cq_util.Metrics.counter; (* total input symbols of those *)
  cache_hits : Cq_util.Metrics.counter; (* answered by the prefix cache *)
  batches : Cq_util.Metrics.counter; (* query_batch calls reaching it *)
  batched : Cq_util.Metrics.counter; (* queries arriving inside a batch *)
  conflicts : Cq_util.Metrics.counter; (* prefix-cache conflicts arbitrated *)
  latency : Cq_util.Metrics.histogram;
      (* seconds per call reaching the system, single query or batch:
         count = queries - batched + batches *)
}

let fresh_stats ?registry ?(prefix = "member") () =
  let r =
    match registry with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let c field = Cq_util.Metrics.counter r (prefix ^ "." ^ field) in
  {
    queries = c "queries";
    symbols = c "symbols";
    cache_hits = c "cache_hits";
    batches = c "batches";
    batched = c "batched";
    conflicts = c "conflicts";
    (* 1 µs .. ~1 h in factor-2 buckets *)
    latency =
      Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 r
        (prefix ^ ".latency_seconds");
  }

let counting stats t =
  {
    t with
    query =
      (fun w ->
        Cq_util.Metrics.incr stats.queries;
        Cq_util.Metrics.add stats.symbols (List.length w);
        let r, seconds = Cq_util.Clock.time (fun () -> t.query w) in
        Cq_util.Metrics.observe stats.latency seconds;
        r);
    query_batch =
      (fun ws ->
        let n = List.length ws in
        Cq_util.Metrics.incr stats.batches;
        Cq_util.Metrics.add stats.batched n;
        Cq_util.Metrics.add stats.queries n;
        Cq_util.Metrics.add stats.symbols
          (List.fold_left (fun a w -> a + List.length w) 0 ws);
        let r, seconds = Cq_util.Clock.time (fun () -> t.query_batch ws) in
        Cq_util.Metrics.observe stats.latency seconds;
        r);
  }

(* Prefix-tree cache.  Output queries are prefix-closed (the outputs of a
   prefix are a prefix of the outputs), so a trie lets us answer any query
   whose whole path is known, and to extend partial knowledge cheaply.

   The trie is most of the learner's live set (1.9M nodes for LRU-6), so
   it holds no per-node objects: nodes are ints indexing int cells in
   fixed-size chunks, and only a node with two or more children has an
   input-wide child block.  The major GC marks a few hundred arrays
   instead of millions of blocks.

   Outputs are interned: a node holds the code of its output in the
   trie's dictionary, so the insert and conflict paths compare ints and a
   snapshot stores each distinct output once.  Every output the cache
   hands out is a dictionary entry, in fresh and resumed runs alike, so
   both runs share output objects the same way. *)
module Trie = struct
  (* Node [n] is an int with two int cells, at [2 * (n land chunk_mask)]
     in chunk [n lsr chunk_bits] of [nodes]:
     - its tag, [(code + 1) lsl (label_bits + 1) lor label lsl 1 lor fan]:
       [label] is the input on the edge leading here, [code] its output's
       dictionary code (-1 for none), and [fan] tells what the link is;
     - its link: 0 for no children, else its only child when [fan] is 0,
       else a block of [n_inputs] cells in [blocks] holding its child
       along each input (0 for none).
     Node 0 is the root, which is nobody's child and has no output, and
     block 0 is never used, so 0 can mean "none" everywhere: [code t 0]
     is -1.  Most nodes have at most one child and cost two words; a
     node gets a block when its second child arrives.  Fixed-size chunks
     let the trie grow without ever copying what it holds. *)
  let chunk_bits = 12
  let chunk_mask = (1 lsl chunk_bits) - 1

  type 'o t = {
    n_inputs : int;
    label_bits : int;
    mutable nodes : int array array;
    mutable n_nodes : int;
    mutable blocks : int array array;
    mutable n_blocks : int;
    mutable dict : 'o array; (* code -> output; [size] entries in use *)
    mutable size : int;
  }

  let root = 0

  (* Bits to store a label below [n]. *)
  let rec bits_for n = if n <= 1 then 0 else 1 + bits_for ((n + 1) / 2)

  let create n_inputs =
    {
      n_inputs;
      label_bits = bits_for n_inputs;
      nodes = [| Array.make (2 lsl chunk_bits) 0 |];
      n_nodes = 1;
      blocks = [||];
      n_blocks = 1;
      dict = [||];
      size = 0;
    }

  let tag t n =
    Array.unsafe_get
      (Array.unsafe_get t.nodes (n lsr chunk_bits))
      (2 * (n land chunk_mask))

  let link t n =
    Array.unsafe_get
      (Array.unsafe_get t.nodes (n lsr chunk_bits))
      ((2 * (n land chunk_mask)) + 1)

  let set_tag t n v =
    Array.unsafe_set
      (Array.unsafe_get t.nodes (n lsr chunk_bits))
      (2 * (n land chunk_mask))
      v

  let set_link t n v =
    Array.unsafe_set
      (Array.unsafe_get t.nodes (n lsr chunk_bits))
      ((2 * (n land chunk_mask)) + 1)
      v

  let slot t b i =
    Array.unsafe_get
      (Array.unsafe_get t.blocks (b lsr chunk_bits))
      ((t.n_inputs * (b land chunk_mask)) + i)

  let set_slot t b i v =
    Array.unsafe_set
      (Array.unsafe_get t.blocks (b lsr chunk_bits))
      ((t.n_inputs * (b land chunk_mask)) + i)
      v

  let code t n = (tag t n lsr (t.label_bits + 1)) - 1
  let label t n = (tag t n lsr 1) land ((1 lsl t.label_bits) - 1)
  let fanned t n = tag t n land 1 = 1

  let set_code t n code =
    let low = (1 lsl (t.label_bits + 1)) - 1 in
    set_tag t n (((code + 1) lsl (t.label_bits + 1)) lor (tag t n land low))

  (* The code of [o] from dictionary slot [i] on, appending [o] when no
     entry is physically or structurally equal to it.  A policy has
     assoc + 1 outputs, so a scan beats hashing.  Top-level, so the
     per-symbol insert path allocates no closure. *)
  let rec intern_from t o i =
    if i = t.size then begin
      if i = Array.length t.dict then begin
        let d = Array.make (max 8 (2 * i)) o in
        Array.blit t.dict 0 d 0 i;
        t.dict <- d
      end;
      t.dict.(i) <- o;
      t.size <- i + 1;
      i
    end
    else
      let d = Array.unsafe_get t.dict i in
      if d == o || d = o then i else intern_from t o (i + 1)

  let intern t o = intern_from t o 0

  (* The child of [n] along input [i], or 0. *)
  let child t n i =
    let l = link t n in
    if l = 0 || i < 0 || i >= t.n_inputs then 0
    else if fanned t n then slot t l i
    else if label t l = i then l
    else 0

  (* The dictionary entries along [word]; [Not_found] past the known part. *)
  let rec outputs_from t n = function
    | [] -> []
    | i :: rest ->
        let c = child t n i in
        let code = code t c in
        if code < 0 then raise Not_found;
        t.dict.(code) :: outputs_from t c rest

  let lookup t word =
    match outputs_from t root word with
    | os -> Some os
    | exception Not_found -> None

  let rec known_from t n = function
    | [] -> true
    | i :: rest ->
        let c = child t n i in
        code t c >= 0 && known_from t c rest

  let known t word = known_from t root word

  (* [chunks] with room for chunk [k], which is allocated [width] cells
     wide if missing. *)
  let with_chunk chunks k width =
    let chunks =
      if k < Array.length chunks then chunks
      else begin
        let spine = Array.make (max 1 (2 * k)) [||] in
        Array.blit chunks 0 spine 0 (Array.length chunks);
        spine
      end
    in
    if Array.length chunks.(k) = 0 then chunks.(k) <- Array.make width 0;
    chunks

  (* A fresh childless node without an output, along input [label]. *)
  let new_node t label =
    let n = t.n_nodes in
    t.nodes <- with_chunk t.nodes (n lsr chunk_bits) (2 lsl chunk_bits);
    t.n_nodes <- n + 1;
    set_tag t n (label lsl 1);
    set_link t n 0;
    n

  let new_block t =
    let b = t.n_blocks in
    t.blocks <-
      with_chunk t.blocks (b lsr chunk_bits) (t.n_inputs lsl chunk_bits);
    t.n_blocks <- b + 1;
    b

  (* The child of [n] along input [i], created without an output if
     missing. *)
  let add_child t n i =
    if i < 0 || i >= t.n_inputs then invalid_arg "Moracle: input out of range";
    let l = link t n in
    if l = 0 then begin
      let x = new_node t i in
      set_link t n x;
      x
    end
    else if fanned t n then begin
      let c = slot t l i in
      if c <> 0 then c
      else begin
        let x = new_node t i in
        set_slot t l i x;
        x
      end
    end
    else if label t l = i then l
    else begin
      let b = new_block t in
      set_slot t b (label t l) l;
      let x = new_node t i in
      set_slot t b i x;
      set_tag t n (tag t n lor 1);
      set_link t n b;
      x
    end

  (* Insert [outputs] along [word] and return them as dictionary entries.
     With [force], overwrite the outputs already there — used when
     arbitration decided a previously cached answer was the corrupt one;
     without it, a differing output raises [Inconsistent]. *)
  let rec insert_from ~force t n word outputs =
    match (word, outputs) with
    | [], [] -> []
    | i :: wrest, o :: orest ->
        let c = add_child t n i in
        let had = code t c in
        (if had < 0 || force then set_code t c (intern t o)
         else
           let d = t.dict.(had) in
           if not (d == o || d = o) then
             raise
               (Inconsistent
                  "Moracle: inconsistent outputs for the same input word (the \
                   system under learning is nondeterministic)"));
        t.dict.(code t c) :: insert_from ~force t c wrest orest
    | _ -> invalid_arg "Moracle.Trie.insert: length mismatch"

  let insert t word outputs = insert_from ~force:false t root word outputs
  let insert_force t word outputs = insert_from ~force:true t root word outputs

  (* Dump format, see [knowledge] below. *)
  let mask_width n_inputs = (n_inputs / 8) + if n_inputs land 7 = 0 then 0 else 1

  let rec add_varint buf n =
    if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      add_varint buf (n lsr 7)
    end

  let rec dump t buf n =
    let l = link t n and width = mask_width t.n_inputs in
    if l = 0 then
      for _ = 1 to width do
        Buffer.add_char buf '\000'
      done
    else if not (fanned t n) then begin
      let i = label t l and code = code t l in
      for b = 0 to width - 1 do
        Buffer.add_char buf
          (if code >= 0 && i lsr 3 = b then Char.unsafe_chr (1 lsl (i land 7))
           else '\000')
      done;
      if code >= 0 then begin
        add_varint buf code;
        dump t buf l
      end
    end
    else begin
      let m = ref 0 in
      for i = 0 to t.n_inputs - 1 do
        if code t (slot t l i) >= 0 then m := !m lor (1 lsl (i land 7));
        if i land 7 = 7 || i = t.n_inputs - 1 then begin
          Buffer.add_char buf (Char.unsafe_chr !m);
          m := 0
        end
      done;
      for i = 0 to t.n_inputs - 1 do
        let c = slot t l i in
        if code t c >= 0 then begin
          add_varint buf (code t c);
          dump t buf c
        end
      done
    end
end

(* The portable form of a prefix trie: its output dictionary and one
   preorder byte string.  For each node the string holds a child mask
   [mask_width n_inputs] bytes wide (bit [i land 7] of byte [i lsr 3] is
   set when input [i] has a child), then, for each present child in input
   order, the child's output code as an LEB128 varint followed by the
   child's own subtree.  Sessions Marshal it into snapshots, which copies
   the string and the small array without visiting every path. *)
type 'o knowledge = { n_inputs : int; outputs : 'o array; trie : string }

exception Malformed of string

(* Walk a dump in preorder: [enter h i code] is called for every child
   edge, [h] being the parent's handle, and returns the child's handle.
   Returns the number of leaves below the root — the maximal paths.
   Raises [Malformed] on a mask bit at or above [n_inputs], a code
   outside the dictionary, or bytes missing or left over.  The walk keeps
   its own stack, so a hostile dump cannot exhaust the call stack. *)
let walk k root enter =
  let s = k.trie and n = k.n_inputs and codes = Array.length k.outputs in
  let len = String.length s and width = Trie.mask_width n in
  let pos = ref 0 and leaves = ref 0 in
  let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let mask () =
    let p = !pos in
    if p + width > len then malformed "truncated child mask at byte %d" p;
    if n land 7 <> 0 && Char.code s.[p + width - 1] lsr (n land 7) <> 0 then
      malformed "child mask at byte %d names an input >= %d" p n;
    pos := p + width;
    p
  in
  let rec is_leaf p b = b = width || (s.[p + b] = '\000' && is_leaf p (b + 1)) in
  let rec varint shift acc =
    if !pos >= len then malformed "truncated output code at byte %d" !pos;
    let b = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 || shift > 56 then acc else varint (shift + 7) acc
  in
  let has m i = Char.code s.[m + (i lsr 3)] land (1 lsl (i land 7)) <> 0 in
  let rec next m i = if i < n && not (has m i) then next m (i + 1) else i in
  let rec loop = function
    | [] -> ()
    | (h, m, i) :: up ->
        let i = next m i in
        if i < n then begin
          let at = !pos in
          let code = varint 0 0 in
          if code < 0 || code >= codes then
            malformed "output code at byte %d outside the %d-entry dictionary"
              at codes;
          let c = enter h i code in
          let cm = mask () in
          if is_leaf cm 0 then incr leaves;
          loop ((c, cm, 0) :: (h, m, i + 1) :: up)
        end
        else loop up
  in
  if n < 1 then malformed "%d inputs" n;
  loop [ (root, mask (), 0) ];
  if !pos <> len then malformed "%d bytes after the trie" (len - !pos);
  !leaves

let check k =
  match walk k () (fun () _ _ -> ()) with
  | _ -> Ok ()
  | exception Malformed m -> Error m

let knowledge_size k =
  try walk k () (fun () _ _ -> ())
  with Malformed m -> invalid_arg ("Moracle.knowledge_size: " ^ m)

let export (trie : _ Trie.t) =
  let buf = Buffer.create 4096 in
  Trie.dump trie buf Trie.root;
  {
    n_inputs = trie.n_inputs;
    outputs = Array.sub trie.dict 0 trie.size;
    trie = Buffer.contents buf;
  }

(* Trust the dump — sessions check it at load time — and overwrite
   overlapping paths.  Codes are remapped through [intern], so a resumed
   trie adopts the dump's own output objects. *)
let preload (trie : _ Trie.t) k =
  if k.n_inputs <> trie.n_inputs then
    invalid_arg
      (Printf.sprintf "Moracle.preload: dump has %d inputs, the trie %d"
         k.n_inputs trie.n_inputs);
  let remap = Array.map (Trie.intern trie) k.outputs in
  ignore
    (walk k Trie.root (fun parent i code ->
         let c = Trie.add_child trie parent i in
         Trie.set_code trie c remap.(code);
         c)
      : int)

type 'o handle = {
  refresh : int list -> 'o list;
  export : unit -> 'o knowledge;
  preload : 'o knowledge -> unit;
}

let cached_session ?stats ?(conflict_retries = 0) (t : _ t) =
  if conflict_retries < 0 then
    invalid_arg "Moracle.cached: conflict_retries must be >= 0";
  let trie = Trie.create t.n_inputs in
  let note_hit () =
    match stats with Some s -> Cq_util.Metrics.incr s.cache_hits | None -> ()
  in
  let note_conflict () =
    match stats with Some s -> Cq_util.Metrics.incr s.conflicts | None -> ()
  in
  let check_length w outputs =
    if List.length outputs <> List.length w then
      failwith "Moracle: output word length mismatch"
  in
  (* [outputs] for [w] conflicted with a cached prefix.  One of the two
     executions carried a transient measurement flip; arbitrate by
     re-executing.  A fresh run that agrees with the trie exonerates the
     cache (insert succeeds); two fresh runs agreeing with each other
     outvote the single cached execution, which is overwritten.  Only a
     system that keeps answering differently is reported nondeterministic. *)
  let arbitrate w first_outputs msg =
    note_conflict ();
    if conflict_retries = 0 then raise (Inconsistent msg);
    let rec go k prev =
      if k > conflict_retries then
        raise
          (Inconsistent
             (Printf.sprintf "%s (persisted through %d re-executions)" msg
                conflict_retries))
      else begin
        let outputs = t.query w in
        check_length w outputs;
        match Trie.insert trie w outputs with
        | interned -> interned
        | exception Inconsistent _ ->
            if prev = outputs then Trie.insert_force trie w outputs
            else go (k + 1) outputs
      end
    in
    go 1 first_outputs
  in
  (* Bypass the cache: re-execute [w] on the system (until two consecutive
     runs agree, bounded by [conflict_retries]) and overwrite the cached
     path with the fresh answer.  This is how a caller who *suspects* a
     cached entry (e.g. a counterexample that may stem from a transient
     measurement flip) repairs the cache and gets a trustworthy answer. *)
  let refresh w =
    let rec settle k prev =
      let outputs = t.query w in
      check_length w outputs;
      if prev = Some outputs || k >= conflict_retries then outputs
      else settle (k + 1) (Some outputs)
    in
    let outputs = settle 0 None in
    (match Trie.lookup trie w with
    | Some old when old <> outputs -> note_conflict ()
    | _ -> ());
    Trie.insert_force trie w outputs
  in
  ( {
      t with
      query =
      (fun w ->
        match Trie.lookup trie w with
        | Some outputs ->
            note_hit ();
            outputs
        | None -> (
            let outputs = t.query w in
            check_length w outputs;
            match Trie.insert trie w outputs with
            | interned -> interned
            | exception Inconsistent msg -> arbitrate w outputs msg));
    query_batch =
      (fun ws ->
        (* Serve known words from the trie; forward the deduplicated rest
           as one batch and grow the trie from its answers.  Duplicates
           and prefix-of-another-miss words resolve from the trie after
           insertion. *)
        let missing = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun w ->
            if not (Trie.known trie w) then begin
              let key = Cq_util.Deep.pack w in
              if not (Hashtbl.mem missing key) then begin
                Hashtbl.replace missing key ();
                order := w :: !order
              end
            end)
          ws;
        let todo = List.rev !order in
        (if todo <> [] then
           let answers = t.query_batch todo in
           List.iter2
             (fun w outputs ->
               check_length w outputs;
               match Trie.insert trie w outputs with
               | (_ : _ list) -> ()
               | exception Inconsistent msg -> ignore (arbitrate w outputs msg))
             todo answers);
        List.map
          (fun w ->
            match Trie.lookup trie w with
            | Some outputs ->
                if not (Hashtbl.mem missing (Cq_util.Deep.pack w)) then
                  note_hit ();
                outputs
            | None -> assert false (* just inserted *))
          ws);
    },
    {
      refresh;
      export = (fun () -> export trie);
      preload = (fun k -> preload trie k);
    } )

let cached_refresh ?stats ?conflict_retries t =
  let oracle, handle = cached_session ?stats ?conflict_retries t in
  (oracle, handle.refresh)

let cached ?stats ?conflict_retries t =
  fst (cached_refresh ?stats ?conflict_retries t)

(* Oracle backed by an explicit Mealy machine — ground truth in tests and
   the "perfect teacher" ablation. *)
let of_mealy m =
  make ~n_inputs:(Cq_automata.Mealy.n_inputs m) (Cq_automata.Mealy.run m)
