(* Tests for everest_recovery and the crash-consistent checkpoint/restore
   paths built on it: the token codec, the versioned snapshot envelope,
   write-ahead journal segments (including torn tails), the on-disk store
   (fingerprint checks, snapshot fallback), and the headline invariant —
   a run killed at a random journal point and resumed produces reports
   byte-identical to the uninterrupted same-seed run, for both the
   serving fabric (snapshot + tail replay) and the workflow executor
   (journaled re-execution with snapshot anchors). *)

module Codec = Everest_recovery.Codec
module Snapshot = Everest_recovery.Snapshot
module Journal = Everest_recovery.Journal
module Store = Everest_recovery.Store
module Fabric = Everest_serving.Fabric
module Workload = Everest_serving.Workload
module Faults = Everest_resilience.Faults
module Metrics = Everest_telemetry.Metrics
module Executor = Everest_workflow.Executor
module Checkpoint = Everest_workflow.Checkpoint

(* One journal record line, framed as the fabric's journal writes it. *)
let output_record oc payload =
  let w = Codec.writer () in
  Codec.add_string w payload;
  Journal.output_framed oc w
module Dag = Everest_workflow.Dag
module Scheduler = Everest_workflow.Scheduler
module Cluster = Everest_platform.Cluster

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_dir name =
  Filename.concat (Filename.get_temp_dir_name ()) ("everest-recovery-" ^ name)

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

(* ---- codec ---------------------------------------------------------------- *)

let strings = [ ""; "%"; "plain"; "a b"; "line\nbreak"; "\x00\xff\x7f~"; "100%" ]

let test_codec_roundtrip () =
  let c =
    Codec.(
      triple (list int) (list float)
        (triple (pair bool bool) (list string)
           (pair (option string) (list (pair string float)))))
  in
  let v =
    ( [ 0; -42; max_int ],
      [ 0.0; 1.0 /. 3.0; -1.7976931348623157e308; 5e-324 ],
      ( (true, false),
        strings,
        (Some "x", [ ("size", 1024.0); ("alpha", 0.5) ]) ) )
  in
  let s = Codec.encode c v in
  checkb "round-trip" true (Codec.decode c s = v);
  checkb "no option" true
    (Codec.decode Codec.(option int) (Codec.encode Codec.(option int) None)
    = None);
  (* the byte format: count-prefixed lists, bool-tagged options, floats
     as 16 hex digits of their bit pattern *)
  checks "format" "1 1 t 3ff0000000000000 f"
    (Codec.encode Codec.(pair (list int) (pair (option float) (option int)))
       ([ 1 ], (Some 1.0, None)))

let test_codec_is_deterministic () =
  let enc () = Codec.encode Codec.(pair float string) (Float.atan 1.0, "x%y z") in
  checks "same bytes" (enc ()) (enc ())

let test_codec_rejects_garbage () =
  let rejects c s =
    match Codec.decode c s with exception Codec.Decode _ -> true | _ -> false
  in
  checkb "bad int" true (rejects Codec.int "nope");
  checkb "truncated" true (rejects Codec.(pair int int) "5");
  checkb "trailing" true (rejects Codec.int "5 6");
  checkb "negative count" true (rejects Codec.(list int) "-1");
  checkb "unknown tag" true (rejects Codec.(enum [ ("a", 1) ]) "b");
  (* only what the encoder writes *)
  List.iter
    (fun t -> checkb ("int " ^ t) true (rejects Codec.int t))
    [ "+5"; "0x10"; "1_000"; "007"; "-0" ];
  checkb "needless '%'" true (rejects Codec.string "%41");
  checkb "needless escape" true (rejects Codec.string "%%41")

(* ---- snapshot envelope ---------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let body = "state body \n with % bytes \x00\xff" in
  match Snapshot.decode (Snapshot.encode body) with
  | Ok got -> checks "body back" body got
  | Error _ -> Alcotest.fail "snapshot refused"

let test_snapshot_detects_bitflip () =
  let raw = Snapshot.encode "some serious state" in
  let b = Bytes.of_string raw in
  let off = Bytes.length b - 3 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  match Snapshot.decode (Bytes.to_string b) with
  | Error (Snapshot.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "bit-flip accepted"
  | Error _ -> Alcotest.fail "wrong error"

let test_snapshot_detects_truncation () =
  let raw = Snapshot.encode "some serious state" in
  match Snapshot.decode (String.sub raw 0 (String.length raw - 5)) with
  | Error (Snapshot.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "truncation accepted"
  | Error _ -> Alcotest.fail "wrong error"

let test_snapshot_detects_version_skew () =
  let raw = Snapshot.encode "state" in
  let skewed =
    "EVEREST-SNAP v9"
    ^ String.sub raw 15 (String.length raw - 15)
  in
  match Snapshot.decode skewed with
  | Error (Snapshot.Version_skew { found = 9; expected = 1 }) -> ()
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error _ -> Alcotest.fail "wrong error"

(* ---- journal -------------------------------------------------------------- *)

let test_journal_record_roundtrip () =
  let payload = "17 0x1.91eb851eb851fp+1 A 42" in
  let path = tmp_dir "record.ejrnl" in
  let oc = open_out_bin path in
  output_string oc (Journal.magic_line ^ "\n");
  let written = output_record oc payload in
  close_out oc;
  checki "bytes written" (String.length payload + 11) written;
  checkb "payload back" true
    ((Journal.read_segment path).Journal.sg_records = [ payload ]);
  let oc = open_out_bin path in
  checkb "newline refused" true
    (match output_record oc "a\nb" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  close_out oc

let test_journal_heals_torn_tail () =
  let dir = tmp_dir "torn" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "state-zero";
  Store.append store "rec-one";
  Store.append store "rec-two";
  Store.close store;
  (* simulate a crash mid-write: a half-record with no checksum *)
  let seg = Filename.concat dir "journal-000000.ejrnl" in
  write_file seg (read_file seg ^ "rec-three #ab");
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  let plan = Store.plan_resume store in
  checkb "torn detected" true plan.Store.r_torn;
  checkb "valid prefix kept" true (store.Store.tail = [ "rec-one"; "rec-two" ]);
  Store.append store "rec-three";
  Store.close store;
  (* after healing + append the segment reads back clean *)
  let seg2 = Journal.read_segment seg in
  checkb "healed" false seg2.Journal.sg_torn;
  checkb "records" true
    (seg2.Journal.sg_records = [ "rec-one"; "rec-two"; "rec-three" ])

(* A crash can cut a segment just before its last newline: resume drops
   that record instead of appending onto its line. *)
let test_journal_heals_missing_newline () =
  let dir = tmp_dir "newline" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "state-zero";
  Store.append store "a";
  Store.append store "b";
  Store.close store;
  let seg = Filename.concat dir "journal-000000.ejrnl" in
  let raw = read_file seg in
  write_file seg (String.sub raw 0 (String.length raw - 1));
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  let plan = Store.plan_resume store in
  checkb "torn detected" true plan.Store.r_torn;
  Store.append store "c";
  Store.close store;
  let seg = Journal.read_segment seg in
  checkb "healed" false seg.Journal.sg_torn;
  Alcotest.(check (list string)) "records" [ "a"; "c" ] seg.Journal.sg_records

(* A segment holding the magic line without its newline is torn with no
   valid bytes, so healing rewrites the whole line. *)
let test_journal_magic_without_newline () =
  let path = tmp_dir "magic.ejrnl" in
  write_file path Journal.magic_line;
  let seg = Journal.read_segment path in
  checkb "torn" true seg.Journal.sg_torn;
  checki "valid bytes" 0 seg.Journal.sg_valid_bytes

(* The journal line format, pinned: one record line as
   [output_record] frames it. *)
let framed payload =
  let path = tmp_dir "framed.ejrnl" in
  let oc = open_out_bin path in
  ignore (output_record oc payload : int);
  close_out oc;
  read_file path

(* The same line with its checksum in uppercase hex. *)
let upper_trailer line =
  let n = String.length line - 9 in
  let up = String.sub line 0 n ^ String.uppercase_ascii (String.sub line n 9) in
  checkb "trailer has a hex letter" false (String.equal up line);
  up

(* [read_segment] of the magic line followed by [lines] keeps [records],
   finds a torn tail when [torn], and then keeps the bytes up to the
   first line it rejects. *)
let check_segment lines ~records ~torn =
  let path = tmp_dir "format.ejrnl" in
  write_file path (String.concat "" ((Journal.magic_line ^ "\n") :: lines));
  let seg = Journal.read_segment path in
  Alcotest.(check (list string)) "records" records seg.Journal.sg_records;
  checkb "torn" torn seg.Journal.sg_torn;
  if torn then
    checki "valid bytes"
      (String.length Journal.magic_line + 1
      + List.fold_left ( + ) 0
          (List.filteri
             (fun i _ -> i < List.length records)
             (List.map String.length lines)))
      seg.Journal.sg_valid_bytes

let journal_format_cases =
  let payloads = [ "#"; " #"; "a #0123abcd"; "x # y #" ] in
  [ ( "payload with '#' and ' #'",
      fun () ->
        check_segment (List.map framed payloads) ~records:payloads ~torn:false );
    ( "empty payload",
      fun () ->
        check_segment [ framed ""; framed "after" ] ~records:[ ""; "after" ]
          ~torn:false );
    ( "uppercase trailer",
      fun () ->
        check_segment
          [ framed "before"; upper_trailer (framed "mixed-case"); framed "after" ]
          ~records:[ "before" ] ~torn:true );
    ( "line shorter than the trailer",
      fun () ->
        check_segment [ framed "before"; "#abc\n"; framed "after" ]
          ~records:[ "before" ] ~torn:true );
    ( "blank line mid-segment",
      fun () ->
        check_segment [ framed "one"; "\n"; framed "two" ] ~records:[ "one" ]
          ~torn:true );
    ( "last record without newline",
      fun () ->
        let last = framed "two" in
        check_segment
          [ framed "one"; String.sub last 0 (String.length last - 1) ]
          ~records:[ "one" ] ~torn:true );
    ( "torn tail of one byte",
      fun () -> check_segment [ framed "one"; "t" ] ~records:[ "one" ] ~torn:true );
    ("magic line only", fun () -> check_segment [] ~records:[] ~torn:false) ]

(* ---- store ---------------------------------------------------------------- *)

let test_store_rejects_config_mismatch () =
  let dir = tmp_dir "fp" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"alpha" () in
  Store.close store;
  checkb "mismatch rejected" true
    (match Store.open_store ~dir ~fingerprint:"beta" () with
    | exception Store.Recovery_error (Store.Config_mismatch _) -> true
    | _ -> false);
  (* same fingerprint reopens fine *)
  Store.close (Store.open_store ~dir ~fingerprint:"alpha" ())

let test_store_no_snapshot () =
  let dir = tmp_dir "empty" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  checkb "no snapshot" true
    (match Store.plan_resume store with
    | exception Store.Recovery_error Store.No_snapshot -> true
    | _ -> false);
  Store.close store

let test_store_falls_back_over_corrupt_snapshot () =
  let dir = tmp_dir "fallback" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "state-zero";
  Store.append store "a";
  Store.append store "b";
  Store.write_snapshot store ~index:1 "state-one";
  Store.append store "c";
  Store.close store;
  (* flip a body byte of the newest snapshot *)
  let snap1 = Filename.concat dir "snap-000001.esnap" in
  let b = Bytes.of_string (read_file snap1) in
  Bytes.set b (Bytes.length b - 2) 'X';
  write_file snap1 (Bytes.to_string b);
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  let plan = Store.plan_resume store in
  checki "fell back to 0" 0 plan.Store.r_index;
  checki "one fallback" 1 plan.Store.r_fallbacks;
  checks "anchor body" "state-zero" plan.Store.r_state;
  (* the tail re-replays both segments *)
  checkb "tail spans segments" true (store.Store.tail = [ "a"; "b"; "c" ]);
  (* the next snapshot index clears the rejected one *)
  checki "next index" 2 plan.Store.r_next_snapshot_index;
  Store.close store

(* [plan_resume] hands back the records before the anchoring snapshot;
   damage there is [Corrupt], and the segment is left as it was. *)
let test_store_earlier_segments () =
  let dir = tmp_dir "earlier" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "state-zero";
  Store.append store "a";
  Store.append store "b";
  Store.write_snapshot store ~index:1 "state-one";
  Store.append store "c";
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  let plan = Store.plan_resume store in
  checkb "earlier records" true (plan.Store.r_earlier = [ "a"; "b" ]);
  checkb "tail" true (store.Store.tail = [ "c" ]);
  Store.close store;
  let seg = Filename.concat dir "journal-000000.ejrnl" in
  let damaged = Bytes.of_string (read_file seg) in
  Bytes.set damaged (String.length Journal.magic_line + 1) 'X';
  let damaged = Bytes.to_string damaged in
  write_file seg damaged;
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  checkb "damage before the anchor is corrupt" true
    (match Store.plan_resume store with
    | exception Store.Recovery_error (Store.Corrupt _) -> true
    | _ -> false);
  Store.close store;
  checks "segment left as it was" damaged (read_file seg)

(* ---- fabric crash/restore ------------------------------------------------- *)

let tenants =
  [ Workload.open_tenant ~diurnal_amplitude:0.3
      ~features:(fun seq -> [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
      ~name:"acme" ~kernel:"mm" ~rate_rps:60.0 ();
    Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4 ~think_s:0.05 () ]

let horizon = 1.2

let fabric_config ~seed =
  { (Fabric.default_config ~n_shards:2) with
    Fabric.seed;
    faults = Faults.plan ~seed:5 ~transient_prob:0.05 ~fpga_transient_prob:0.1 () }

let render r =
  Fabric.render_log r ^ "\n" ^ Fabric.render_slos r ^ "\n"
  ^ Fabric.render_summary r

let fabric_run ?recovery config =
  let registry = Metrics.create_registry () in
  Fabric.run ~registry ?recovery config ~deploy:(Fabric.demo_deploy ())
    ~tenants ~horizon

(* Full run with recovery on; returns the rendering and the journal size. *)
let fabric_baseline ~dir config =
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
  let r = fabric_run ~recovery config in
  let records = store.Store.records_written in
  Store.close store;
  (render r, records)

let fabric_crash_resume ~dir config ~after =
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
  Store.arm_crash store ~after_records:after;
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
  (try
     ignore (fabric_run ~recovery config);
     Alcotest.fail "armed crash did not fire"
   with Journal.Crashed -> ());
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:fp () in
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
  let registry = Metrics.create_registry () in
  let r, report =
    Fabric.resume ~registry ~recovery config ~deploy:(Fabric.demo_deploy ())
      ~tenants ~horizon
  in
  Store.close store;
  (render r, report)

let test_fabric_journaling_is_transparent () =
  let config = fabric_config ~seed:7 in
  let plain = render (fabric_run config) in
  let journaled, records = fabric_baseline ~dir:(tmp_dir "transparent") config in
  checks "recovery on/off identical" plain journaled;
  checkb "journal non-trivial" true (records > 100)

let test_fabric_crash_resume_byte_identical () =
  let config = fabric_config ~seed:7 in
  let base, records = fabric_baseline ~dir:(tmp_dir "fab-base") config in
  List.iter
    (fun after ->
      let resumed, report =
        fabric_crash_resume ~dir:(tmp_dir "fab-crash") config ~after
      in
      checks
        (Printf.sprintf "crash@%d byte-identical" after)
        base resumed;
      checkb "replayed tail" true (report.Fabric.rr_replayed >= 0);
      checkb "no fallbacks" true (report.Fabric.rr_fallbacks = 0))
    [ 1; records / 3; records - 1 ]

let prop_fabric_crash_point_irrelevant =
  QCheck.Test.make ~count:4
    ~name:"fabric: resume from any crash point is byte-identical"
    QCheck.(pair (int_range 1 1000) (int_range 0 1_000_000))
    (fun (seed, crash_raw) ->
      let config = fabric_config ~seed in
      let base, records = fabric_baseline ~dir:(tmp_dir "fab-qbase") config in
      QCheck.assume (records > 1);
      let after = 1 + (crash_raw mod (records - 1)) in
      let resumed, _ =
        fabric_crash_resume ~dir:(tmp_dir "fab-qcrash") config ~after
      in
      String.equal base resumed)

let newest_snap dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".esnap")
  |> List.sort compare |> List.rev |> List.hd |> Filename.concat dir

let corrupt_flip path =
  let b = Bytes.of_string (read_file path) in
  let off = Bytes.length b - 7 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  write_file path (Bytes.to_string b)

let corrupt_truncate path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s / 2))

let corrupt_version path =
  let s = read_file path in
  write_file path ("EVEREST-SNAP v9" ^ String.sub s 15 (String.length s - 15))

let test_fabric_falls_back_over_corrupt_snapshot () =
  let config = fabric_config ~seed:11 in
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  List.iter
    (fun (kind, corrupt) ->
      let dir = tmp_dir "fab-corrupt" in
      let base, records = fabric_baseline ~dir config in
      checkb "has snapshots beyond genesis" true (records > 0);
      corrupt (newest_snap dir);
      let store = Store.open_store ~dir ~fingerprint:fp () in
      let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
      let registry = Metrics.create_registry () in
      let r, report =
        Fabric.resume ~registry ~recovery config
          ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon
      in
      Store.close store;
      checks (kind ^ ": still byte-identical") base (render r);
      checkb (kind ^ ": fell back") true (report.Fabric.rr_fallbacks >= 1);
      checkb (kind ^ ": reported why") true (report.Fabric.rr_skipped <> []))
    [ ("bit-flip", corrupt_flip); ("truncation", corrupt_truncate);
      ("version-skew", corrupt_version) ]

let test_fabric_all_snapshots_corrupt () =
  let config = fabric_config ~seed:13 in
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let dir = tmp_dir "fab-allcorrupt" in
  let _ = fabric_baseline ~dir config in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".esnap")
  |> List.iter (fun f -> corrupt_flip (Filename.concat dir f));
  let store = Store.open_store ~dir ~fingerprint:fp () in
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
  checkb "typed refusal" true
    (match
       Fabric.resume ~recovery config ~deploy:(Fabric.demo_deploy ()) ~tenants
         ~horizon
     with
    | exception Store.Recovery_error Store.No_snapshot -> true
    | _ -> false);
  Store.close store

(* ---- executor crash/restore ----------------------------------------------- *)

let exec_faults =
  Faults.plan ~seed:3
    ~windows:[ { Faults.w_node = "p9"; w_down = 0.004; w_up = Some 0.02 } ]
    ~transient_prob:0.02 ()

let render_stats (s : Executor.stats) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "makespan=%.9f retries=%d timeouts=%d spec=%d recomp=%d bytes=%d xfers=%d\n"
       s.Executor.makespan s.Executor.retries s.Executor.timeouts
       s.Executor.speculative s.Executor.recomputed s.Executor.bytes_moved
       s.Executor.transfers);
  Array.iteri
    (fun i f -> Buffer.add_string buf (Printf.sprintf "%d=%.9f\n" i f))
    s.Executor.task_finish;
  List.iter
    (fun (n, k) -> Buffer.add_string buf (Printf.sprintf "%s:%d\n" n k))
    s.Executor.per_node_tasks;
  Buffer.contents buf

let exec_run ~seed ?checkpoint () =
  let d = Dag.layered ~seed ~layers:5 ~width:6 ~flops:1e9 ~bytes:1e6 () in
  let c = Cluster.everest_demonstrator () in
  let plan = Scheduler.heft c d in
  let registry = Metrics.create_registry () in
  Executor.execute ~faults:exec_faults ~registry ?checkpoint c plan

let test_executor_crash_resume_byte_identical () =
  let dir = tmp_dir "exec-base" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
  let base =
    render_stats (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ())
  in
  let records = store.Store.records_written in
  Store.close store;
  checki "one record per task" 30 records;
  List.iter
    (fun after ->
      let dir = tmp_dir "exec-crash" in
      let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
      Store.arm_crash store ~after_records:after;
      (try
         ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ());
         Alcotest.fail "armed crash did not fire"
       with Journal.Crashed -> ());
      Store.close store;
      let store = Store.open_store ~dir ~fingerprint:"exec" () in
      let ck = Checkpoint.resume ~store ~every:7 in
      let resumed = render_stats (exec_run ~seed:5 ~checkpoint:ck ()) in
      Store.close store;
      checks (Printf.sprintf "crash@%d byte-identical" after) base resumed;
      checki
        (Printf.sprintf "crash@%d replayed whole prefix" after)
        after store.Store.replayed)
    [ 1; 14; records - 1 ]

let prop_executor_crash_point_irrelevant =
  QCheck.Test.make ~count:6
    ~name:"executor: resume from any crash point is byte-identical"
    QCheck.(pair (int_range 1 1000) (int_range 0 1_000_000))
    (fun (seed, crash_raw) ->
      let dir = tmp_dir "exec-qbase" in
      let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
      let base =
        render_stats
          (exec_run ~seed ~checkpoint:(Checkpoint.create ~store ~every:5) ())
      in
      let records = store.Store.records_written in
      Store.close store;
      QCheck.assume (records > 1);
      let after = 1 + (crash_raw mod (records - 1)) in
      let dir = tmp_dir "exec-qcrash" in
      let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
      Store.arm_crash store ~after_records:after;
      (try ignore (exec_run ~seed ~checkpoint:(Checkpoint.create ~store ~every:5) ())
       with Journal.Crashed -> ());
      Store.close store;
      let store = Store.open_store ~dir ~fingerprint:"exec" () in
      let ck = Checkpoint.resume ~store ~every:5 in
      let resumed = render_stats (exec_run ~seed ~checkpoint:ck ()) in
      Store.close store;
      String.equal base resumed)

let test_executor_replay_detects_divergence () =
  (* resume under a different workload: replay must fault, not produce a
     quietly different report *)
  let dir = tmp_dir "exec-diverge" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
  Store.arm_crash store ~after_records:10;
  (try ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ())
   with Journal.Crashed -> ());
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:"exec" () in
  let ck = Checkpoint.resume ~store ~every:7 in
  checkb "divergence detected" true
    (match exec_run ~seed:6 ~checkpoint:ck () with
    | exception Store.Recovery_error (Store.Replay_divergence _) -> true
    | _ -> false);
  Store.close store

(* ---- on-disk format golden ------------------------------------------------ *)

(* The persisted format is pinned: the MD5 of every snapshot body and of
   every journal segment's records (in order), read back through the
   store.  The Marshal-based config fingerprint in [meta] is left out — it
   is not part of the codec format.  A crashed-and-resumed run must leave
   the very same store behind, so a decoder that reads a field out of
   order (and so restores different state) misses the digests too. *)

let store_digests store =
  let md5 s = Digest.to_hex (Digest.string s) in
  let snaps =
    List.map
      (fun i ->
        match Store.load_snapshot store ~index:i with
        | Ok body -> Printf.sprintf "snap-%d %s" i (md5 body)
        | Error e -> Printf.sprintf "snap-%d %s" i (Store.error_to_string e))
      (Store.snapshot_indices store)
  in
  let segs =
    List.map
      (fun i ->
        let seg = Journal.read_segment (Store.seg_path store i) in
        let records = seg.Journal.sg_records in
        Printf.sprintf "journal-%d %d %s" i (List.length records)
          (md5 (String.concat "\n" records)))
      (Store.segment_indices store)
  in
  snaps @ segs

let golden_horizon = 0.3

let golden_fabric_store ?(config = fabric_config ~seed:7) ?breaker ?crash_after
    ~dir () =
  let fp = Fabric.fingerprint config ~tenants ~horizon:golden_horizon in
  let open_rv ~fresh =
    let store = Store.open_store ~fresh ~dir ~fingerprint:fp () in
    (store, { Fabric.rv_store = store; rv_snapshot_every_s = 0.05 })
  in
  let run ?recovery () =
    Fabric.run ~registry:(Metrics.create_registry ()) ?recovery config
      ~deploy:(Fabric.demo_deploy ?breaker ()) ~tenants ~horizon:golden_horizon
  in
  let store, recovery = open_rv ~fresh:true in
  (match crash_after with
  | None -> ignore (run ~recovery ())
  | Some after -> (
      Store.arm_crash store ~after_records:after;
      match run ~recovery () with
      | _ -> Alcotest.fail "armed crash did not fire"
      | exception Journal.Crashed ->
          Store.close store;
          let store, recovery = open_rv ~fresh:false in
          ignore
            (Fabric.resume ~registry:(Metrics.create_registry ()) ~recovery
               config ~deploy:(Fabric.demo_deploy ?breaker ()) ~tenants
               ~horizon:golden_horizon);
          Store.close store));
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:fp () in
  let digests = store_digests store in
  Store.close store;
  digests

let golden_fabric =
  [ "snap-0 de63eadea9e7845e8e2247774549e21e";
    "snap-1 13d5be3411b2fb2547ca8d7acc4a770c";
    "snap-2 1668e5fe5f832ebb31d04d0db6c20fcf";
    "snap-3 92a0891563ff63934de9949c46818d72";
    "snap-4 53fa1c1ab65d5a57e4bf8bd4a6860161";
    "snap-5 2a67ed2ba154896fa287bf3ea6fef385";
    "journal-0 52 5d1f40f20d73e2b360eed9e7491fba7e";
    "journal-1 44 eacf1f6b9af0268251c03e6951351bae";
    "journal-2 20 b2dd505c69609df7817975fb9f9dc072";
    "journal-3 46 cf9110f2336b32eca912b40fe3ba5b3c";
    "journal-4 62 a17496a107adb130e171213c25be4e19";
    "journal-5 31 fe38a0d1010ef8cb467348a8bc7cf2f2" ]

let golden_executor_store ?crash_after ~dir () =
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
  (match crash_after with
  | None -> ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ())
  | Some after ->
      Store.arm_crash store ~after_records:after;
      (try
         ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ());
         Alcotest.fail "armed crash did not fire"
       with Journal.Crashed -> ());
      Store.close store;
      let store = Store.open_store ~dir ~fingerprint:"exec" () in
      ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.resume ~store ~every:7) ());
      Store.close store);
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:"exec" () in
  let digests = store_digests store in
  Store.close store;
  digests

let golden_executor =
  [ "snap-0 b08b3184b1ab049e946dc143caef4bbd";
    "snap-1 297df41637f7a0931adc4507f50828a2";
    "snap-2 7c71a7f19d63b3b909dbf63fc94f34d2";
    "snap-3 18941ade386f0022a1eecfb4883e5cbf";
    "snap-4 636d4b57be0d9ba1a9d91e4f36c1357b";
    "journal-0 7 2378a8edcdede1a9eb06c063f0d0cd0e";
    "journal-1 7 15817a871166d8a8ab51ea9f20679aa9";
    "journal-2 7 6f6d596acfc1bdeb55e4ba879be20641";
    "journal-3 7 2d2feca0eb94ab2a2e3334b16e9b993e";
    "journal-4 2 5a4da15a517dc3dfbfddcde0b1d5f246" ]

let check_digests = Alcotest.(check (list string))

let test_golden_fabric_format () =
  check_digests "uninterrupted" golden_fabric
    (golden_fabric_store ~dir:(tmp_dir "golden-fab") ());
  check_digests "crashed and resumed" golden_fabric
    (golden_fabric_store ~crash_after:100 ~dir:(tmp_dir "golden-fab-crash") ())

(* Shard 0 dies at 195 ms: its last batch left its hardware breaker Open
   with the 2 ms cooldown run out, and no control tick queried it before
   the death.  Nothing queries a dead shard's breaker again, so the
   snapshots must still export it half-open.  These digests pin that:
   their shard state is, byte for byte, what the snapshots held when
   every [Orch.serve] ended by promoting its breakers. *)
let dead_shard_config =
  { (fabric_config ~seed:7) with
    Fabric.faults =
      Faults.plan ~seed:5 ~transient_prob:0.05 ~fpga_transient_prob:0.3
        ~windows:[ { Faults.w_node = "shard0"; w_down = 0.195; w_up = None } ]
        () }

let short_cooldown =
  { Everest_resilience.Breaker.failure_threshold = 1; cooldown_s = 0.002;
    half_open_probes = 1 }

let golden_dead_shard =
  [ "snap-0 de63eadea9e7845e8e2247774549e21e";
    "snap-1 ffe6c9a2a7a45753d57d0acc27ddd6ad";
    "snap-2 14b9dbfa0778681b5ea5508e52435022";
    "snap-3 e0a439ac0bfa8b5794a9a3b0ceaa4b3e";
    "snap-4 20c1c56185c5ecb5b5860853c770f029";
    "snap-5 2fdb175a7902d2b0b883673d0205ce11";
    "snap-6 3001548e5c6e6bb44cf17487ba3baa97";
    "journal-0 52 fff5bb15d5db92265ce82fd713cebb32";
    "journal-1 37 4b7d42bb51604edcc5d11b2e1566e03a";
    "journal-2 25 3ee3336c18e2e4ded2b4f4c8cd0b01f2";
    "journal-3 43 6d06bc5800523eae0357f66fce51b986";
    "journal-4 54 edf0a9919ed622e7af402566c165fd00";
    "journal-5 35 f90d7aced1694a9c40e0f8f435bc6f1b";
    "journal-6 0 d41d8cd98f00b204e9800998ecf8427e" ]

let test_golden_dead_shard_format () =
  let store ?crash_after name =
    golden_fabric_store ~config:dead_shard_config ~breaker:short_cooldown
      ?crash_after ~dir:(tmp_dir name) ()
  in
  check_digests "uninterrupted" golden_dead_shard (store "golden-dead");
  check_digests "crashed and resumed" golden_dead_shard
    (store ~crash_after:100 "golden-dead-crash")

let test_golden_executor_format () =
  check_digests "uninterrupted" golden_executor
    (golden_executor_store ~dir:(tmp_dir "golden-exec") ());
  check_digests "crashed and resumed" golden_executor
    (golden_executor_store ~crash_after:17 ~dir:(tmp_dir "golden-exec-crash") ())

(* ---- codec round-trips ---------------------------------------------------- *)

(* [encode (decode b) = b] for every snapshot body and journal record the
   golden runs leave in their stores, fired events and served-log entries
   both. *)
let test_store_roundtrip () =
  let reencodes what c b = checks what b (Codec.encode c (Codec.decode c b)) in
  let each_record ~dir ~fingerprint ~snapshot ~record =
    let store = Store.open_store ~dir ~fingerprint () in
    List.iter
      (fun i ->
        match Store.load_snapshot store ~index:i with
        | Ok body -> snapshot body
        | Error e -> Alcotest.fail (Store.error_to_string e))
      (Store.snapshot_indices store);
    List.iter
      (fun i ->
        List.iter record
          (Journal.read_segment (Store.seg_path store i)).Journal.sg_records)
      (Store.segment_indices store);
    Store.close store
  in
  let dir = tmp_dir "roundtrip-fab" in
  ignore (golden_fabric_store ~dir ());
  let fired = ref 0 and logged = ref 0 in
  each_record ~dir
    ~fingerprint:
      (Fabric.fingerprint (fabric_config ~seed:7) ~tenants
         ~horizon:golden_horizon)
    ~snapshot:(reencodes "fabric snapshot" Fabric.Codecs.snapshot)
    ~record:(fun r ->
      reencodes "fabric record" Fabric.Codecs.journal_record r;
      match Codec.decode Fabric.Codecs.journal_record r with
      | Fabric.Fired _ -> incr fired
      | Fabric.Logged _ -> incr logged);
  checkb "fired-event records" true (!fired > 0);
  checkb "served-log records" true (!logged > 0);
  let dir = tmp_dir "roundtrip-exec" in
  ignore (golden_executor_store ~dir ());
  each_record ~dir ~fingerprint:"exec"
    ~snapshot:(fun body ->
      reencodes "executor snapshot" Checkpoint.snapshot body;
      let _, state = Codec.decode Checkpoint.snapshot body in
      reencodes "executor state" Executor.checkpoint_state state)
    ~record:(reencodes "executor record" Checkpoint.journal_record)

module Gen = QCheck.Gen

(* Ints and floats with their edge cases: the extremes, signed zeros,
   infinities, NaNs with payloads and subnormals (exponent bits all ones
   or all zeros under a random sign and mantissa). *)
let gen_int = Gen.(oneof [ oneofl [ 0; 1; -1; min_int; max_int ]; int; small_signed_int ])

let gen_float =
  Gen.(
    oneof
      [ oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 5e-324; Float.max_float ];
        map2
          (fun exponent bits ->
            Int64.float_of_bits
              (Int64.logor exponent (Int64.logand bits 0x800fffffffffffffL)))
          (oneofl [ 0x7ff0000000000000L; 0L ])
          ui64;
        map Int64.float_of_bits ui64;
        float ])

let gen_name = Gen.(string_size ~gen:char (int_range 0 6))
let gen_named_floats = Gen.(list_size (int_range 0 3) (pair gen_name gen_float))

let gen_request =
  Gen.(
    let+ rq_id = gen_int
    and+ rq_tenant = gen_name
    and+ rq_kernel = gen_name
    and+ rq_user = gen_int
    and+ rq_seq = gen_int
    and+ rq_arrival_s = gen_float
    and+ rq_features = gen_named_floats in
    { Workload.rq_id; rq_tenant; rq_kernel; rq_user; rq_seq; rq_arrival_s;
      rq_features })

let all_outcomes =
  (Fabric.Served :: Fabric.Failed "execution-failed"
  :: List.map (fun r -> Fabric.Rejected r) Everest_serving.Admission.all_reasons)

let gen_served =
  Gen.(
    let+ sr_id = gen_int
    and+ sr_tenant = gen_name
    and+ sr_kernel = gen_name
    and+ sr_shard = gen_int
    and+ sr_arrival_s = gen_float
    and+ sr_done_s = gen_float
    and+ sr_latency_s = gen_float
    and+ sr_outcome =
      oneof [ oneofl all_outcomes; map (fun why -> Fabric.Failed why) gen_name ]
    and+ sr_batch = gen_int
    and+ sr_attempts = gen_int
    and+ sr_variant = gen_name
    and+ sr_degraded = bool in
    { Fabric.sr_id; sr_tenant; sr_kernel; sr_shard; sr_arrival_s; sr_done_s;
      sr_latency_s; sr_outcome; sr_batch; sr_attempts; sr_variant;
      sr_degraded })

let gen_entry =
  Gen.(
    let+ req = gen_int
    and+ requested = gen_name
    and+ variant = gen_name
    and+ latency_s = gen_float
    and+ attempts = gen_int
    and+ degraded = bool
    and+ ok = bool
    and+ t_done = gen_float in
    { Everest_runtime.Orchestrator.req; requested; variant; latency_s;
      attempts; degraded; ok; t_done })

let gen_ev =
  Gen.(
    oneof
      [ map (fun rq -> Fabric.Ev_arrival rq) gen_request;
        (let+ c_sid = gen_int
         and+ c_start = gen_float
         and+ b_key = gen_name
         and+ b_formed_s = gen_float
         and+ b_requests = list_size (int_range 1 3) gen_request
         and+ c_entry = gen_entry in
         Fabric.Ev_complete
           { c_sid; c_start;
             c_batch = { Everest_serving.Batcher.b_key; b_requests; b_formed_s };
             c_entry });
        map (fun sid -> Fabric.Ev_flush sid) gen_int;
        map (fun sid -> Fabric.Ev_spawn sid) gen_int;
        return Fabric.Ev_tick ])

(* [compare], not [=]: a NaN float must round-trip too *)
let roundtrips c v = compare (Codec.decode c (Codec.encode c v)) v = 0

let prop_codec_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"codec: decode (encode v) = v for requests, served entries, events"
    (QCheck.make Gen.(triple gen_request gen_served gen_ev))
    (fun (rq, sr, ev) ->
      roundtrips Fabric.Codecs.request rq
      && List.for_all
           (fun o ->
             roundtrips Fabric.Codecs.served { sr with Fabric.sr_outcome = o })
           (sr.Fabric.sr_outcome :: all_outcomes)
      && roundtrips Fabric.Codecs.ev ev
      && roundtrips Fabric.Codecs.journal_record (Fabric.Fired (7, 0.5, ev))
      && roundtrips Fabric.Codecs.journal_record (Fabric.Logged sr))

(* The four fabric record codecs over the reference encoders, field by
   field in the order [Fabric.Codecs] declares them. *)
module Reference_fabric = struct
  open Codec_reference

  let request w (rq : Workload.request) =
    int w rq.Workload.rq_id;
    string w rq.Workload.rq_tenant;
    string w rq.Workload.rq_kernel;
    int w rq.Workload.rq_user;
    int w rq.Workload.rq_seq;
    float w rq.Workload.rq_arrival_s;
    list (pair string float) w rq.Workload.rq_features

  let entry w (e : Everest_runtime.Orchestrator.request_log) =
    let open Everest_runtime.Orchestrator in
    int w e.req;
    string w e.requested;
    string w e.variant;
    float w e.latency_s;
    int w e.attempts;
    bool w e.degraded;
    bool w e.ok;
    float w e.t_done

  let ev w = function
    | Fabric.Ev_arrival rq -> string w "A"; request w rq
    | Fabric.Ev_complete { c_sid; c_start; c_batch; c_entry } ->
        string w "C";
        int w c_sid;
        float w c_start;
        string w c_batch.Everest_serving.Batcher.b_key;
        float w c_batch.Everest_serving.Batcher.b_formed_s;
        list request w c_batch.Everest_serving.Batcher.b_requests;
        entry w c_entry
    | Fabric.Ev_flush sid -> string w "F"; int w sid
    | Fabric.Ev_spawn sid -> string w "S"; int w sid
    | Fabric.Ev_tick -> string w "T"

  let served w (x : Fabric.served_request) =
    int w x.Fabric.sr_id;
    string w x.Fabric.sr_tenant;
    string w x.Fabric.sr_kernel;
    int w x.Fabric.sr_shard;
    float w x.Fabric.sr_arrival_s;
    float w x.Fabric.sr_done_s;
    float w x.Fabric.sr_latency_s;
    (match x.Fabric.sr_outcome with
    | Fabric.Served -> string w "ok"
    | Fabric.Rejected r ->
        string w "rej";
        string w (Everest_serving.Admission.reason_name r)
    | Fabric.Failed why -> string w "fail"; string w why);
    int w x.Fabric.sr_batch;
    int w x.Fabric.sr_attempts;
    string w x.Fabric.sr_variant;
    bool w x.Fabric.sr_degraded

  let journal_record w = function
    | Fabric.Fired (id, at, e) -> string w "E"; int w id; float w at; ev w e
    | Fabric.Logged x -> string w "L"; served w x
end

let gen_bytes =
  Gen.(
    oneof
      [ oneofl [ ""; "%"; "%%"; "%41"; "a b"; "\n"; "\x00\x1f\x7f\x80\xff"; "100%"; "~" ];
        string_size ~gen:char (int_range 0 8);
        string_size ~gen:printable (int_range 1 8) ])

let prop_codec_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"codec: bytes equal the reference encoders' for primitives and records"
    (QCheck.make
       Gen.(pair (triple gen_int gen_float gen_bytes) (triple gen_request gen_served gen_ev)))
    (fun ((i, f, s), (rq, sr, ev)) ->
      let same c reference v =
        String.equal (Codec.encode c v) (Codec_reference.encode reference v)
      in
      same Codec.int Codec_reference.int i
      && same Codec.float Codec_reference.float f
      && same Codec.string Codec_reference.string s
      && same
           Codec.(triple int (option float) (list string))
           Codec_reference.(triple int (option float) (list string))
           (i, Some f, [ s; s ])
      && same Fabric.Codecs.request Reference_fabric.request rq
      && List.for_all
           (fun o ->
             same Fabric.Codecs.served Reference_fabric.served
               { sr with Fabric.sr_outcome = o })
           (sr.Fabric.sr_outcome :: all_outcomes)
      && same Fabric.Codecs.ev Reference_fabric.ev ev
      && same Fabric.Codecs.journal_record Reference_fabric.journal_record
           (Fabric.Fired (i, f, ev))
      && same Fabric.Codecs.journal_record Reference_fabric.journal_record
           (Fabric.Logged sr))

(* Tokens the encoders write and near misses they never write: signs,
   leading zeros, other radixes, overflow, uppercase hex, needless or
   broken escapes, unescaped bytes, and the empty token. *)
let near_misses =
  [ "0"; "-0"; "+5"; "007"; "00"; "-"; "1"; "-1"; "0x10"; "1_000"; "1e3";
    string_of_int max_int; string_of_int min_int; "4611686018427387904";
    "-4611686018427387905"; "t"; "f"; "T"; "true"; "%"; "%%25"; "%41"; "%2";
    "%zz"; "%2A"; "%2a"; "%%"; "%%41"; "%%0a"; "%%0A"; "a%b"; "%a"; "%20"; "\x01"; "\xc3\xa9";
    "3ff0000000000000"; "3FF0000000000000"; "7ff8000000000001";
    "fff0000000000000"; "3ff000000000000"; "A"; "C"; "E"; "F"; "L"; "S";
    "ok"; "rej"; "fail"; "" ]

(* Candidate records: near misses joined by spaces, and encoded journal
   records with one token replaced by a near miss or dropped. *)
let gen_candidate =
  Gen.(
    oneof
      [ map (String.concat " ") (list_size (int_range 0 6) (oneofl near_misses));
        (let+ ev = gen_ev
         and+ sr = gen_served
         and+ fired = bool
         and+ k = nat
         and+ token = oneofl near_misses
         and+ drop = bool in
         let record = if fired then Fabric.Fired (3, 0.25, ev) else Fabric.Logged sr in
         let toks = String.split_on_char ' ' (Codec.encode Fabric.Codecs.journal_record record) in
         let k = k mod List.length toks in
         String.concat " "
           (List.concat
              (List.mapi
                 (fun j t -> if j <> k then [ t ] else if drop then [] else [ token ])
                 toks))) ])

let prop_codec_canonical =
  QCheck.Test.make ~count:2000
    ~name:"codec: whenever decode c s succeeds, encode c (decode c s) = s"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_candidate)
    (fun s ->
      let canonical c =
        match Codec.decode c s with
        | exception Codec.Decode _ -> true
        | v -> String.equal (Codec.encode c v) s
      in
      canonical Codec.int && canonical Codec.float && canonical Codec.bool
      && canonical Codec.string
      && canonical Codec.(list int)
      && canonical Codec.(option string)
      && canonical Codec.(pair int float)
      && canonical Codec.(enum [ ("ok", 1); ("rej", 2) ])
      && canonical Fabric.Codecs.ev
      && canonical Fabric.Codecs.journal_record
      && canonical Checkpoint.journal_record)

(* A snapshot that does not fit the fabric it is resumed into is a typed
   error, never an escaping [Not_found] or [Invalid_argument].  [tamper]
   may rewrite the store before the resume. *)
let refusal ?(tamper = fun _ -> ()) ~deploy name =
  let config = fabric_config ~seed:7 in
  let dir = tmp_dir name in
  ignore (fabric_baseline ~dir config);
  let store =
    Store.open_store ~dir
      ~fingerprint:(Fabric.fingerprint config ~tenants ~horizon)
      ()
  in
  tamper store;
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
  let refused =
    match
      Fabric.resume ~registry:(Metrics.create_registry ()) ~recovery config
        ~deploy ~tenants ~horizon
    with
    | exception Store.Recovery_error (Store.Corrupt why) -> Some why
    | _ -> None
  in
  Store.close store;
  refused

let resume_is_refused ?tamper ~deploy name =
  Option.is_some (refusal ?tamper ~deploy name)

(* Refused as [Corrupt] with a message naming [what]. *)
let check_refused what ~tamper name =
  match refusal ~tamper ~deploy:(Fabric.demo_deploy ()) name with
  | Some why when Astring.String.is_infix ~affix:what why -> ()
  | Some why -> Alcotest.failf "refused for another reason: %s" why
  | None -> Alcotest.failf "%s: resume not refused" what

let test_fabric_resume_mismatched_deploy () =
  checkb "typed refusal" true
    (resume_is_refused ~deploy:(fun _ -> ()) "fab-deploy")

let newest_body store =
  let i = List.fold_left max 0 (Store.snapshot_indices store) in
  match Store.load_snapshot store ~index:i with
  | Ok body -> (i, body)
  | Error e -> Alcotest.fail (Store.error_to_string e)

(* A snapshot's pending event, as its body holds it. *)
let pending = Codec.(triple int float Fabric.Codecs.ev)

(* The first event fired after the newest snapshot that the snapshot
   still holds (open-loop arrivals are regenerated, not held); moving it
   to t=0 (a well-formed, re-sealed snapshot) puts it before the restored
   clock. *)
let move_first_pending_to_genesis store =
  let i, body = newest_body store in
  let held =
    List.find_map
      (fun r ->
        match Codec.decode Fabric.Codecs.journal_record r with
        | Fabric.Fired (id, at, ev) ->
            let enc = Codec.encode pending (id, at, ev) in
            Option.map
              (fun cut -> (cut, Codec.encode pending (id, 0.0, ev)))
              (Astring.String.cut ~sep:enc body)
        | Fabric.Logged _ -> None)
      (Journal.read_segment (Store.seg_path store i)).Journal.sg_records
  in
  match held with
  | Some ((before, after), moved) ->
      write_file (Store.snap_path store i)
        (Snapshot.encode (before ^ moved ^ after))
  | None -> Alcotest.fail "no pending event of the snapshot fired after it"

let test_fabric_resume_pending_in_the_past () =
  checkb "typed refusal" true
    (resume_is_refused ~tamper:move_first_pending_to_genesis
       ~deploy:(Fabric.demo_deploy ()) "fab-past")

(* Reverse the first tenant's first SLO monitor's kept events in the
   newest snapshot (a well-formed, re-sealed body), so they run oldest
   first.  The monitor sits in the body as: tenant, monitor count, event
   count n, n (time, bad) pairs, total, bad, last time, firing, alerts. *)
let reverse_slo_events store =
  let i = List.fold_left max 0 (Store.snapshot_indices store) in
  let body =
    match Store.load_snapshot store ~index:i with
    | Ok body -> body
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let toks = Array.of_list (String.split_on_char ' ' body) in
  let is_float t =
    String.length t = 16
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) t
  in
  let is_bool t = t = "t" || t = "f" in
  let is_int t = int_of_string_opt t <> None in
  let monitor_at k =
    match int_of_string_opt toks.(k) with
    | Some n when n >= 2 && k >= 2 && k + (2 * n) + 5 < Array.length toks ->
        let e = k + (2 * n) in
        String.equal toks.(k - 2) "acme"
        && is_int toks.(k - 1)
        && List.for_all
             (fun j -> is_float toks.(k + 1 + (2 * j)) && is_bool toks.(k + 2 + (2 * j)))
             (List.init n Fun.id)
        && is_int toks.(e + 1) && is_int toks.(e + 2) && is_float toks.(e + 3)
        && is_bool toks.(e + 4) && is_int toks.(e + 5)
        (* the newest and oldest times differ, so the reversal reorders *)
        && not (String.equal toks.(k + 1) toks.(e - 1))
    | _ -> false
  in
  let rec find k =
    if k >= Array.length toks then Alcotest.fail "no SLO event list in the snapshot"
    else if monitor_at k then k
    else find (k + 1)
  in
  let k = find 0 in
  let n = int_of_string toks.(k) in
  let pairs = Array.init n (fun j -> (toks.(k + 1 + (2 * j)), toks.(k + 2 + (2 * j)))) in
  Array.iteri
    (fun j (t, bad) ->
      toks.(k + 1 + (2 * (n - 1 - j))) <- t;
      toks.(k + 2 + (2 * (n - 1 - j))) <- bad)
    pairs;
  write_file (Store.snap_path store i)
    (Snapshot.encode (String.concat " " (Array.to_list toks)))

let test_fabric_resume_slo_events_out_of_order () =
  checkb "typed refusal" true
    (resume_is_refused ~tamper:reverse_slo_events
       ~deploy:(Fabric.demo_deploy ()) "fab-slo-order")

(* Add [by] to one of the newest snapshot's two counts and re-seal it:
   [which] 0 is the open-loop arrival cursor, 1 the served-log count.
   They follow the clock, four counters, the failure list (a count, then
   pairs) and the balancer cursor. *)
let bump_count ~which ~by store =
  let i, body = newest_body store in
  let toks = Array.of_list (String.split_on_char ' ' body) in
  let k = 8 + (2 * int_of_string toks.(6)) + which in
  toks.(k) <- string_of_int (int_of_string toks.(k) + by);
  write_file (Store.snap_path store i)
    (Snapshot.encode (String.concat " " (Array.to_list toks)))

(* Keep snapshots 0 and 1 only, so the newest one is taken mid-run,
   with open-loop arrivals still to come. *)
let keep_first_two store =
  List.iter
    (fun i -> if i > 1 then Sys.remove (Store.snap_path store i))
    (Store.snapshot_indices store)

let test_fabric_resume_counts_disagree () =
  List.iter
    (fun (what, mid, which, by) ->
      check_refused what
        ~tamper:(fun store ->
          if mid then keep_first_two store;
          bump_count ~which ~by store)
        (Printf.sprintf "fab-count-%b-%d%+d" mid which by))
    [ ("open-loop arrival cursor", false, 0, 1);
      ("open-loop arrival cursor", true, 0, 1);
      ("open-loop arrival cursor", true, 0, -1);
      ("served-log count", false, 1, 1); ("served-log count", true, 1, -1) ]

(* Damage the first record of journal segment 0, which precedes the
   newest snapshot. *)
let damage_first_record store =
  let seg = Store.seg_path store 0 in
  let b = Bytes.of_string (read_file seg) in
  Bytes.set b (String.length Journal.magic_line + 1) 'X';
  write_file seg (Bytes.to_string b)

let test_fabric_resume_damaged_earlier_record () =
  check_refused "journal segment 0" ~tamper:damage_first_record "fab-earlier"

(* Rewrite the first [kind] record ("E" or "L") after the anchoring
   snapshot, re-sealing its checksum: its id token goes up by one.  The
   resume replays up to it and refuses, holding the rewritten record as
   the journal's and the original as the re-derived one. *)
let test_fabric_replay_detects_divergence () =
  let config = fabric_config ~seed:7 in
  let fingerprint = Fabric.fingerprint config ~tenants ~horizon in
  List.iter
    (fun kind ->
      let dir = tmp_dir ("fab-diverge-" ^ kind) in
      ignore (fabric_baseline ~dir config);
      let store = Store.open_store ~dir ~fingerprint () in
      keep_first_two store;
      let seg = Store.seg_path store 1 in
      let records = (Journal.read_segment seg).Journal.sg_records in
      let k =
        match
          List.find_index
            (fun r -> String.equal (List.hd (String.split_on_char ' ' r)) kind)
            records
        with
        | Some k -> k
        | None -> Alcotest.failf "no %s record after snapshot 1" kind
      in
      let original = List.nth records k in
      let rewritten =
        match String.split_on_char ' ' original with
        | tag :: id :: rest ->
            String.concat " " (tag :: string_of_int (int_of_string id + 1) :: rest)
        | _ -> Alcotest.failf "%s record %S has no id" kind original
      in
      let oc = open_out_bin seg in
      output_string oc (Journal.magic_line ^ "\n");
      List.iteri
        (fun i r ->
          ignore (output_record oc (if i = k then rewritten else r) : int))
        records;
      close_out oc;
      let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
      (match
         Fabric.resume ~registry:(Metrics.create_registry ()) ~recovery config
           ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon
       with
      | exception Store.Recovery_error (Store.Replay_divergence { expected; got })
        ->
          checks (kind ^ ": journal record") rewritten expected;
          checks (kind ^ ": re-derived record") original got
      | _ -> Alcotest.failf "%s: rewritten record replayed" kind);
      Store.close store)
    [ "E"; "L" ]

(* A store written before the schema version joined the fingerprint (it
   digested config, tenants and horizon alone) does not open. *)
let test_fabric_refuses_older_schema () =
  let config = fabric_config ~seed:7 in
  let tenant_sig =
    List.map
      (fun (t : Workload.tenant) ->
        (t.Workload.t_name, t.Workload.t_kernel, t.Workload.t_arrival))
      tenants
  in
  let older =
    Digest.to_hex (Digest.string (Marshal.to_string (config, tenant_sig, horizon) []))
  in
  let dir = tmp_dir "older-schema" in
  Store.close (Store.open_store ~fresh:true ~dir ~fingerprint:older ());
  checkb "config mismatch" true
    (match
       Store.open_store ~dir ~fingerprint:(Fabric.fingerprint config ~tenants ~horizon) ()
     with
    | exception Store.Recovery_error (Store.Config_mismatch _) -> true
    | store ->
        Store.close store;
        false)

(* A snapshot holds live state, not the run: at one rate, horizons 4x
   apart (both past the SLO monitors' 0.5 s slow window) leave newest
   snapshots of about one size.  The journal holds each served-log entry
   exactly once. *)
let test_fabric_snapshot_size_flat () =
  let config = Fabric.default_config ~n_shards:2 in
  let tenants =
    [ Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:400.0 () ]
  in
  let newest_size horizon =
    let fingerprint = Fabric.fingerprint config ~tenants ~horizon in
    let dir = tmp_dir (Printf.sprintf "flat-%g" horizon) in
    let store = Store.open_store ~fresh:true ~dir ~fingerprint () in
    let r =
      Fabric.run ~registry:(Metrics.create_registry ())
        ~recovery:{ Fabric.rv_store = store; rv_snapshot_every_s = 0.25 }
        config ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon
    in
    Store.close store;
    let store = Store.open_store ~dir ~fingerprint () in
    let _, body = newest_body store in
    let logged =
      List.fold_left
        (fun n i ->
          List.fold_left
            (fun n rec_ ->
              match Codec.decode Fabric.Codecs.journal_record rec_ with
              | Fabric.Logged _ -> n + 1
              | Fabric.Fired _ -> n)
            n (Journal.read_segment (Store.seg_path store i)).Journal.sg_records)
        0 (Store.segment_indices store)
    in
    Store.close store;
    checki
      (Printf.sprintf "horizon %g: one record per served-log entry" horizon)
      (List.length r.Fabric.f_log) logged;
    String.length body
  in
  let short = newest_size 1.0 and long = newest_size 4.0 in
  if float_of_int long > 1.5 *. float_of_int short then
    Alcotest.failf "newest snapshot grew from %d to %d bytes with a 4x horizon"
      short long

let () =
  Alcotest.run "everest_recovery"
    [ ( "codec",
        [ Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_codec_is_deterministic;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage
        ] );
      ( "snapshot",
        [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "bit-flip" `Quick test_snapshot_detects_bitflip;
          Alcotest.test_case "truncation" `Quick test_snapshot_detects_truncation;
          Alcotest.test_case "version skew" `Quick
            test_snapshot_detects_version_skew ] );
      ( "journal",
        [ Alcotest.test_case "record round-trip" `Quick
            test_journal_record_roundtrip;
          Alcotest.test_case "torn tail healed" `Quick
            test_journal_heals_torn_tail;
          Alcotest.test_case "missing newline healed" `Quick
            test_journal_heals_missing_newline;
          Alcotest.test_case "magic line without newline" `Quick
            test_journal_magic_without_newline ]
        @ List.map
            (fun (name, f) -> Alcotest.test_case name `Quick f)
            journal_format_cases );
      ( "store",
        [ Alcotest.test_case "config mismatch" `Quick
            test_store_rejects_config_mismatch;
          Alcotest.test_case "no snapshot" `Quick test_store_no_snapshot;
          Alcotest.test_case "snapshot fallback" `Quick
            test_store_falls_back_over_corrupt_snapshot;
          Alcotest.test_case "earlier segments" `Quick
            test_store_earlier_segments ] );
      ( "fabric",
        [ Alcotest.test_case "journaling is transparent" `Quick
            test_fabric_journaling_is_transparent;
          Alcotest.test_case "crash/resume byte-identical" `Quick
            test_fabric_crash_resume_byte_identical;
          Alcotest.test_case "corrupt snapshot fallback" `Quick
            test_fabric_falls_back_over_corrupt_snapshot;
          Alcotest.test_case "all snapshots corrupt" `Quick
            test_fabric_all_snapshots_corrupt;
          Alcotest.test_case "resume under another deployment" `Quick
            test_fabric_resume_mismatched_deploy;
          Alcotest.test_case "resume with a pending event in the past" `Quick
            test_fabric_resume_pending_in_the_past;
          Alcotest.test_case "resume with SLO events out of order" `Quick
            test_fabric_resume_slo_events_out_of_order;
          Alcotest.test_case "resume with counts that disagree" `Quick
            test_fabric_resume_counts_disagree;
          Alcotest.test_case "resume over a damaged earlier record" `Quick
            test_fabric_resume_damaged_earlier_record;
          Alcotest.test_case "replay detects divergence" `Quick
            test_fabric_replay_detects_divergence;
          Alcotest.test_case "older schema refused" `Quick
            test_fabric_refuses_older_schema;
          Alcotest.test_case "snapshot size flat in the run" `Quick
            test_fabric_snapshot_size_flat ] );
      ( "executor",
        [ Alcotest.test_case "crash/resume byte-identical" `Quick
            test_executor_crash_resume_byte_identical;
          Alcotest.test_case "replay detects divergence" `Quick
            test_executor_replay_detects_divergence ] );
      (* CI runs this group for every QCHECK_SEED from 1000 to 1100.  Its
         name is no longer than the others, so Alcotest's group column, and
         with it every printed test name, keeps its width. *)
      ( "crashes",
        [ QCheck_alcotest.to_alcotest prop_fabric_crash_point_irrelevant;
          QCheck_alcotest.to_alcotest prop_executor_crash_point_irrelevant ] );
      ( "format",
        [ Alcotest.test_case "fabric store golden" `Quick
            test_golden_fabric_format;
          Alcotest.test_case "dead shard with an expired breaker golden"
            `Quick test_golden_dead_shard_format;
          Alcotest.test_case "executor store golden" `Quick
            test_golden_executor_format;
          Alcotest.test_case "store records re-encode" `Quick
            test_store_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_matches_reference;
          QCheck_alcotest.to_alcotest prop_codec_canonical ] )
    ]
