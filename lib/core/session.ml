(* Durable learning sessions: versioned on-disk snapshots of learning
   progress.

   A snapshot carries everything a resumed run needs to reproduce the
   crashed run *exactly*:

   - the membership oracle's prefix trie (every (word, outputs) pair the
     hardware ever answered), as {!Cq_learner.Moracle.knowledge}: the
     output dictionary plus one preorder byte string of child masks and
     varint output codes — on resume the trie is preloaded and the
     learner replays deterministically, with known queries served
     locally at zero hardware cost;
   - the L* observation table (E, S, cached rows) — rows are a pure
     function of the oracle, so re-seeding the row cache skips
     recomputation without changing what is learned;
   - run metadata: the PRNG seed (reset discovery must re-derive the same
     reset sequence) and the backend's calibration state (a resumed run
     must classify latencies exactly like the crashed one).

   File format (version 2): a fixed header — magic, one version byte,
   the MD5 digest of the payload — followed by a [Marshal]ed {!snapshot}.
   The digest catches truncation and bit rot before [Marshal.from_string]
   can misbehave on them; the version byte rejects snapshots from
   incompatible builds before anything is unmarshalled (version 1 held
   the trie as a list of maximal paths, which must never be read as the
   byte-string form).  The trie bytes are then checked structurally, so
   a damaged trie section is a [Corrupt] here, not an exception in the
   resumed learn.  Writes go through {!Cq_util.Atomic_file}
   (tmp + fsync + rename), so a crash mid-write leaves the previous
   snapshot intact — readers never observe a torn file. *)

exception Corrupt of string

let magic = "CQSNAP"
let version = 2

(* magic + version byte + 16-byte MD5 digest *)
let header_len = String.length magic + 1 + 16

type meta = {
  version : int;  (* mirrors the header byte, for programmatic checks *)
  label : string;
  created : float; (* Unix time the snapshot was written *)
  queries : int; (* hardware queries answered when it was written *)
  seed : int option;
  calibration : Cq_cachequery.Backend.calibration option;
}

type 'o snapshot = {
  meta : meta;
  knowledge : 'o Cq_learner.Moracle.knowledge;
  table : 'o Cq_learner.Lstar.table_state option;
}

let make_meta ?(label = "") ?seed ?calibration ~queries () =
  { version; label; created = Cq_util.Clock.now (); queries; seed; calibration }

let encode snap =
  let payload = Marshal.to_string snap [] in
  let buf = Buffer.create (header_len + String.length payload) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let save ~path snap =
  let encoded = encode snap in
  (fun run ->
    if Cq_util.Trace.enabled () then
      Cq_util.Trace.with_span ~cat:"session"
        ~args:[ ("bytes", string_of_int (String.length encoded)) ]
        "session.save" run
    else run ())
  @@ fun () -> Cq_util.Atomic_file.write ~path encoded

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let decode ~path s =
  let mlen = String.length magic in
  if String.length s < header_len then
    corrupt "%s: truncated snapshot (%d bytes, header needs %d)" path
      (String.length s) header_len;
  if String.sub s 0 mlen <> magic then
    corrupt "%s: not a CacheQuery snapshot (bad magic)" path;
  let v = Char.code s.[mlen] in
  if v <> version then
    corrupt "%s: snapshot format version %d, this build reads version %d" path
      v version;
  let digest = String.sub s (mlen + 1) 16 in
  let payload = String.sub s header_len (String.length s - header_len) in
  if Digest.string payload <> digest then
    corrupt "%s: snapshot digest mismatch (truncated or corrupted payload)"
      path;
  match (Marshal.from_string payload 0 : _ snapshot) with
  | exception (Failure _ | Invalid_argument _) ->
      corrupt "%s: snapshot payload does not unmarshal" path
  | snap -> (
      match Cq_learner.Moracle.check snap.knowledge with
      | Ok () -> snap
      | Error m -> corrupt "%s: damaged trie section: %s" path m)

let load ~path =
  match Cq_util.Atomic_file.read_opt ~path with
  | None -> corrupt "%s: no such snapshot" path
  | Some s ->
      (fun run ->
        if Cq_util.Trace.enabled () then
          Cq_util.Trace.with_span ~cat:"session"
            ~args:[ ("bytes", string_of_int (String.length s)) ]
            "session.load" run
        else run ())
      @@ fun () -> decode ~path s

let load_opt ~path =
  match Cq_util.Atomic_file.read_opt ~path with
  | None -> None
  | Some s -> Some (decode ~path s)

let pp_meta ppf m =
  Fmt.pf ppf "%s%d queries, seed %s, threshold %s"
    (if m.label = "" then "" else m.label ^ ": ")
    m.queries
    (match m.seed with Some s -> string_of_int s | None -> "-")
    (match m.calibration with
    | Some c -> string_of_int c.Cq_cachequery.Backend.cal_threshold ^ "c"
    | None -> "-")
