(* Durable recovery store: one directory holding a config fingerprint,
   numbered snapshots and numbered write-ahead journal segments.

     dir/meta                EVEREST-META v1 + config fingerprint
     dir/snap-000042.esnap   snapshot 42 (Snapshot envelope)
     dir/journal-000042.ejrnl  records appended after snapshot 42

   Writing snapshot [n] atomically (tmp + rename) then starting segment
   [n] keeps the invariant that segment [n] only ever holds events that
   happened after snapshot [n]: restore = newest valid snapshot [k] +
   replay of segments [k..last].  Snapshots that fail validation are
   skipped — restore falls back to the previous one and re-replays a
   longer tail, it never silently loads damaged state.

   A resumed run re-derives its events and hands each record to [log]:
   while the journal tail from [plan_resume] lasts, the record is verified
   against it byte for byte (a mismatch is a typed [Replay_divergence]);
   once the tail runs dry, [log] appends.  [log] encodes the record into
   the store's one writer; the journal checksums, frames and writes it
   from there, and replay compares it with the tail where it lies.
   [plan_resume] also returns the records of the segments before the
   anchoring snapshot, for a client whose snapshots leave out what those
   records already hold; a damaged record there is [Corrupt], never
   truncated like a torn tail.

   Crash injection for drills and the QCheck byte-identity property is
   armed here: after N appended records the store flushes (the record
   itself is durable — it is a write-AHEAD log) and raises
   {!Journal.Crashed}. *)

type error =
  | Corrupt of string
  | Version_skew of { found : int; expected : int }
  | Truncated of string
  | Config_mismatch of { found : string; expected : string }
  | Replay_divergence of { expected : string; got : string }
  | No_snapshot

exception Recovery_error of error

let error_to_string = function
  | Corrupt why -> Printf.sprintf "corrupt: %s" why
  | Version_skew { found; expected } ->
      Printf.sprintf "version skew: found v%d, expected v%d" found expected
  | Truncated why -> Printf.sprintf "truncated: %s" why
  | Config_mismatch { found; expected } ->
      Printf.sprintf "config mismatch: store %s, run %s" found expected
  | Replay_divergence { expected; got } ->
      Printf.sprintf "replay divergence: journal %S, re-derived %S" expected
        got
  | No_snapshot -> "no valid snapshot in store"

let of_snapshot_error = function
  | Snapshot.Corrupt w -> Corrupt w
  | Snapshot.Version_skew { found; expected } ->
      Version_skew { found; expected }
  | Snapshot.Truncated w -> Truncated w

type t = {
  dir : string;
  fingerprint : string;
  mutable chan : out_channel option;
  mutable seg_index : int;
  mutable crash_after : int option;
  mutable records_written : int;
  mutable tail : string list;  (* journal records still to verify *)
  mutable replayed : int;  (* records verified since [plan_resume] *)
  mutable snapshots_written : int;
  mutable journal_bytes : int;
  mutable snapshot_bytes : int;
  mutable work_s : float;
      (* Seconds the client attributes to recovery work (encoding,
         appends, snapshots), as it times them: the fabric reads
         [Unix.gettimeofday], so this is wall-clock time.  Benches gate
         on [work_s /. (total -. work_s)]: both sides of that fraction
         come from the same run, so host-noise multipliers (frequency
         scaling, co-tenant contention) cancel, unlike an A/B comparison
         of separate timed runs. *)
  record : Codec.writer;  (* the record [log] or [append] is writing *)
}

let meta_magic = "EVEREST-META v1"

let snap_path t i = Filename.concat t.dir (Printf.sprintf "snap-%06d.esnap" i)

let seg_path t i =
  Filename.concat t.dir (Printf.sprintf "journal-%06d.ejrnl" i)

let rec mkdirs d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Indices of on-disk artifacts with the given prefix/suffix. *)
let indices t ~prefix ~suffix =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         let pl = String.length prefix and sl = String.length suffix in
         let nl = String.length name in
         if
           nl > pl + sl
           && String.equal (String.sub name 0 pl) prefix
           && String.equal (String.sub name (nl - sl) sl) suffix
         then int_of_string_opt (String.sub name pl (nl - pl - sl))
         else None)
  |> List.sort compare

let snapshot_indices t = indices t ~prefix:"snap-" ~suffix:".esnap"
let segment_indices t = indices t ~prefix:"journal-" ~suffix:".ejrnl"

let wipe t =
  List.iter (fun i -> try Sys.remove (snap_path t i) with Sys_error _ -> ())
    (snapshot_indices t);
  List.iter (fun i -> try Sys.remove (seg_path t i) with Sys_error _ -> ())
    (segment_indices t)

let open_store ?(fresh = false) ~dir ~fingerprint () =
  mkdirs dir;
  let t =
    {
      dir;
      fingerprint;
      chan = None;
      seg_index = -1;
      crash_after = None;
      records_written = 0;
      tail = [];
      replayed = 0;
      snapshots_written = 0;
      journal_bytes = 0;
      snapshot_bytes = 0;
      work_s = 0.0;
      record = Codec.writer ();
    }
  in
  let meta = Filename.concat dir "meta" in
  if fresh then begin
    wipe t;
    write_file meta (Printf.sprintf "%s\n%s\n" meta_magic fingerprint)
  end
  else if Sys.file_exists meta then begin
    match String.split_on_char '\n' (read_file meta) with
    | m :: fp :: _ when String.equal m meta_magic ->
        if not (String.equal fp fingerprint) then
          raise
            (Recovery_error
               (Config_mismatch { found = fp; expected = fingerprint }))
    | _ -> raise (Recovery_error (Corrupt "bad meta file"))
  end
  else write_file meta (Printf.sprintf "%s\n%s\n" meta_magic fingerprint);
  t

let arm_crash t ~after_records =
  t.crash_after <- (if after_records <= 0 then None else Some after_records)

let close t =
  match t.chan with
  | None -> ()
  | Some oc ->
      close_out_noerr oc;
      t.chan <- None

(* Open journal segment [i] for appending, writing the magic line when
   the file does not exist yet. *)
let open_segment t i ~truncate =
  close t;
  let path = seg_path t i in
  let existed = (not truncate) && Sys.file_exists path in
  let flags =
    if truncate then [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    else [ Open_wronly; Open_creat; Open_append; Open_binary ]
  in
  let oc = open_out_gen flags 0o644 path in
  if not existed then output_string oc (Journal.magic_line ^ "\n");
  t.chan <- Some oc;
  t.seg_index <- i

(* Append the record [t.record] holds. *)
let append_record t =
  let oc =
    match t.chan with
    | Some oc -> oc
    | None ->
        if t.seg_index < 0 then
          invalid_arg "Store.append: no journal segment open";
        open_segment t t.seg_index ~truncate:false;
        Option.get t.chan
  in
  let written = Journal.output_framed oc t.record in
  t.records_written <- t.records_written + 1;
  t.journal_bytes <- t.journal_bytes + written;
  match t.crash_after with
  | Some n when n <= 1 ->
      t.crash_after <- None;
      (* WAL contract: the record that triggers the crash is already
         durable — flush before dying. *)
      flush oc;
      raise Journal.Crashed
  | Some n ->
      t.crash_after <- Some (n - 1)
  | None -> ()

let append t payload =
  Codec.reset t.record;
  Codec.add_string t.record payload;
  append_record t

let replaying t = t.tail <> []

(* Write-ahead or verify [x] as [c] encodes it: the next tail record must
   equal it; with the tail exhausted, it is appended. *)
let log t c x =
  Codec.reset t.record;
  c.Codec.enc t.record x;
  match t.tail with
  | [] -> append_record t
  | expected :: rest ->
      if not (Codec.contents_equal t.record expected) then
        raise
          (Recovery_error
             (Replay_divergence { expected; got = Codec.contents t.record }));
      t.replayed <- t.replayed + 1;
      t.tail <- rest

let write_snapshot t ~index body =
  let hdr = Snapshot.header body in
  let path = snap_path t index in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc hdr;
      output_string oc body);
  Sys.rename tmp path;
  t.snapshots_written <- t.snapshots_written + 1;
  t.snapshot_bytes <- t.snapshot_bytes + String.length hdr + String.length body;
  open_segment t index ~truncate:true

let load_snapshot t ~index =
  let path = snap_path t index in
  if not (Sys.file_exists path) then Error No_snapshot
  else
    match Snapshot.decode (read_file path) with
    | Ok body -> Ok body
    | Error e -> Error (of_snapshot_error e)

type resume = {
  r_state : string;                 (* body of the newest valid snapshot *)
  r_index : int;                    (* its index *)
  r_earlier : string list;          (* records of the segments before it *)
  r_fallbacks : int;                (* newer snapshots rejected as invalid *)
  r_skipped : (int * error) list;   (* what was wrong with each of them *)
  r_torn : bool;                    (* a torn segment tail was truncated *)
  r_next_snapshot_index : int;      (* where the resumed run snapshots next *)
}

(* Truncate a torn segment to its valid prefix so the resumed run can
   keep appending to a clean file. *)
let heal_segment t i =
  let seg = Journal.read_segment (seg_path t i) in
  if seg.Journal.sg_torn then begin
    let raw = if Sys.file_exists (seg_path t i) then read_file (seg_path t i) else "" in
    let keep =
      if seg.Journal.sg_valid_bytes = 0 then Journal.magic_line ^ "\n"
      else String.sub raw 0 seg.Journal.sg_valid_bytes
    in
    write_file (seg_path t i) keep
  end;
  seg

(* The records of segment [i], which precedes the anchoring snapshot
   [anchor]: it was closed when a later snapshot was written, so a record
   failing its checksum there is damage, not a torn tail. *)
let earlier_records t i ~anchor =
  let seg = Journal.read_segment (seg_path t i) in
  if seg.Journal.sg_torn then
    raise
      (Recovery_error
         (Corrupt
            (Printf.sprintf "journal segment %d, before snapshot %d, is damaged"
               i anchor)));
  seg.Journal.sg_records

(* Pick the newest valid snapshot, read the segments before it, and arm
   the journal tail after it for [log] to verify.  [genesis] replays the
   journal from segment 0 regardless of which snapshot anchors the
   resume — used by the workflow executor, whose restore model is
   deterministic re-execution verified against the journal, with
   snapshots serving as integrity anchors. *)
let plan_resume ?(genesis = false) t =
  close t;
  let snaps = List.rev (snapshot_indices t) in  (* newest first *)
  if snaps = [] then raise (Recovery_error No_snapshot);
  let rec pick skipped = function
    | [] -> raise (Recovery_error No_snapshot)
    | i :: rest -> (
        match load_snapshot t ~index:i with
        | Ok body -> (i, body, List.rev skipped)
        | Error e -> pick ((i, e) :: skipped) rest)
  in
  let index, state, skipped = pick [] snaps in
  let segs = segment_indices t in
  let first_seg = if genesis then 0 else index in
  let earlier_segs, replay_segs = List.partition (fun i -> i < first_seg) segs in
  let earlier =
    List.concat_map (fun i -> earlier_records t i ~anchor:index) earlier_segs
  in
  let torn = ref false in
  t.tail <-
    List.concat_map
      (fun i ->
        let seg = heal_segment t i in
        if seg.Journal.sg_torn then torn := true;
        seg.Journal.sg_records)
      replay_segs;
  t.replayed <- 0;
  (* Keep appending to the newest segment on disk; the next snapshot
     gets a fresh index above everything present (including rejected
     snapshots, which are left in place as evidence). *)
  let last_seg = List.fold_left max index segs in
  open_segment t last_seg ~truncate:false;
  let next_snap = 1 + List.fold_left max index (List.map fst skipped) in
  {
    r_state = state;
    r_index = index;
    r_earlier = earlier;
    r_fallbacks = List.length skipped;
    r_skipped = skipped;
    r_torn = !torn;
    r_next_snapshot_index = next_snap;
  }

let flush t = match t.chan with Some oc -> flush oc | None -> ()
