(* Tests for everest_security: known-answer vectors for AES/SHA/HMAC, AEAD
   behaviour, information-flow tracking and anomaly monitors. *)

open Everest_security
module Ir = Everest_ir.Ir
module Types = Everest_ir.Types
module Sec = Everest_ir.Dialect_sec

let () = Everest_ir.Registry.register_all ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---- AES-128 ----------------------------------------------------------------- *)

let test_aes_fips197 () =
  let key = Aes.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Aes.of_hex "00112233445566778899aabbccddeeff" in
  let w = Aes.key_of_bytes key in
  let ct = Aes.encrypt_block w pt in
  checks "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (Aes.to_hex ct)

let test_aes_sp800_38a () =
  let w = Aes.key_of_bytes (Aes.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Aes.encrypt_block w (Aes.of_hex "6bc1bee22e409f96e93d7e117393172a") in
  checks "SP800-38A ECB block 1" "3ad77bb40d7a3660a89ecaf32466ef97" (Aes.to_hex ct)

let test_aes_ctr_roundtrip () =
  let w = Aes.key_of_string "0123456789abcdef" in
  let nonce = Bytes.of_string "\x00\x01\x02\x03\x04\x05\x06\x07" in
  let msg = Bytes.of_string "EVEREST moves computation closer to the data." in
  let ct = Aes.ctr_transform w ~nonce msg in
  checkb "ciphertext differs" true (not (Bytes.equal ct msg));
  checkb "roundtrip" true (Bytes.equal msg (Aes.ctr_transform w ~nonce ct))

let prop_ctr_roundtrip =
  QCheck.Test.make ~count:100 ~name:"AES-CTR roundtrips arbitrary data"
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      let w = Aes.key_of_string "kkkkkkkkkkkkkkkk" in
      let nonce = Bytes.make 8 '\x42' in
      let data = Bytes.of_string s in
      Bytes.equal data (Aes.ctr_transform w ~nonce (Aes.ctr_transform w ~nonce data)))

(* ---- SHA-256 ----------------------------------------------------------------- *)

let test_sha256_vectors () =
  checks "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "");
  checks "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc");
  checks "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_long () =
  (* one million 'a' characters, FIPS 180-4 vector *)
  let s = String.make 1_000_000 'a' in
  checks "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex s)

(* ---- HMAC --------------------------------------------------------------------- *)

let test_hmac_rfc4231 () =
  checks "RFC 4231 TC2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hmac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let msg = Bytes.of_string "payload" in
  let tag = Hmac.hmac_sha256 ~key msg in
  checkb "valid tag" true (Hmac.verify ~key ~msg ~tag);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  checkb "tampered tag" false (Hmac.verify ~key ~msg ~tag:bad)

(* ---- AEAD --------------------------------------------------------------------- *)

let test_seal_open () =
  let k = Cipher.derive_keys "master-password" in
  let msg = Bytes.of_string "wind farm production forecast: 41.7 MWh" in
  let s = Cipher.seal k msg in
  (match Cipher.open_ k s with
  | Ok pt -> checkb "opens" true (Bytes.equal pt msg)
  | Error _ -> Alcotest.fail "seal/open failed");
  (* tamper with the ciphertext *)
  let ct' = Bytes.copy s.Cipher.ct in
  Bytes.set ct' 3 'X';
  (match Cipher.open_ k { s with Cipher.ct = ct' } with
  | Error Cipher.Bad_tag -> ()
  | Ok _ -> Alcotest.fail "tamper must be detected");
  (* nonces are unique *)
  let s2 = Cipher.seal k msg in
  checkb "fresh nonce" true (not (Bytes.equal s.Cipher.nonce s2.Cipher.nonce));
  checkb "same msg, different ct" true (not (Bytes.equal s.Cipher.ct s2.Cipher.ct))

let test_crypto_cost_model () =
  let sw = Cipher.encryption_time_s ~bytes:1_000_000 ~accelerated:false ~clock_hz:2.5e9 in
  let hw = Cipher.encryption_time_s ~bytes:1_000_000 ~accelerated:true ~clock_hz:2.5e8 in
  checkb "acceleration wins on bulk data" true (hw < sw)

(* ---- IFT ---------------------------------------------------------------------- *)

let test_ift_detects_leak () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let cls = Sec.classify ctx x Sec.Secret in
  let sink = Everest_ir.Dialect_df.sink ctx "out" (Ir.result cls) in
  let f = Ir.func "leak" [ x ] [] [ cls; sink; Everest_ir.Dialect_func.return ctx [] ] in
  let vs = Ift.analyze_func f in
  checki "one violation" 1 (List.length vs);
  checkb "secret source" true
    ((List.hd vs).Ift.source_level = Sec.Secret)

let test_ift_encrypt_declassifies () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let key = Ir.fresh_value ctx Types.f64 in
  let cls = Sec.classify ctx x Sec.Secret in
  let enc = Sec.encrypt ctx (Ir.result cls) key in
  let sink = Everest_ir.Dialect_df.sink ctx "out" (Ir.result enc) in
  let f =
    Ir.func "ok" [ x; key ] [] [ cls; enc; sink; Everest_ir.Dialect_func.return ctx [] ]
  in
  checki "no violation after encryption" 0 (List.length (Ift.analyze_func f))

let test_ift_cleared_sink () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let cls = Sec.classify ctx x Sec.Confidential in
  let sink = Everest_ir.Dialect_df.sink ctx "vault" (Ir.result cls) in
  let sink =
    { sink with
      Ir.attrs = sink.Ir.attrs @ [ ("everest.security", Everest_ir.Attr.str "secret") ] }
  in
  let f = Ir.func "ok" [ x ] [] [ cls; sink; Everest_ir.Dialect_func.return ctx [] ] in
  checki "cleared sink accepts confidential" 0 (List.length (Ift.analyze_func f))

let test_ift_propagates_through_compute () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 4; 4 ]) in
  let cls = Sec.classify ctx x Sec.Internal in
  let mm = Everest_ir.Dialect_tensor.matmul ctx (Ir.result cls) (Ir.result cls) in
  let sink = Everest_ir.Dialect_df.sink ctx "out" (Ir.result mm) in
  let f = Ir.func "flow" [ x ] [] [ cls; mm; sink; Everest_ir.Dialect_func.return ctx [] ] in
  let vs = Ift.analyze_func f in
  checki "internal level flows through matmul" 1 (List.length vs);
  checkb "level preserved" true ((List.hd vs).Ift.source_level = Sec.Internal)

let test_ift_decrypt_reclassifies () =
  (* encrypt declassifies, but decrypting brings the data back to
     Confidential: sinking the plaintext publicly must be flagged *)
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let key = Ir.fresh_value ctx Types.f64 in
  let cls = Sec.classify ctx x Sec.Secret in
  let enc = Sec.encrypt ctx (Ir.result cls) key in
  let dec = Ir_build.decrypt ctx (Ir.result enc) key in
  let sink = Everest_ir.Dialect_df.sink ctx "out" (Ir.result dec) in
  let f =
    Ir.func "roundtrip" [ x; key ] []
      [ cls; enc; dec; sink; Everest_ir.Dialect_func.return ctx [] ]
  in
  let vs = Ift.analyze_func f in
  checki "plaintext leak flagged" 1 (List.length vs);
  checkb "confidential after decrypt" true
    ((List.hd vs).Ift.source_level = Sec.Confidential)

let test_ift_taint_check () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  (* tainted data hitting an uncleared check point is a violation *)
  let t1 = Ir_build.taint ctx x in
  let chk1 = Ir_build.check ctx (Ir.result t1) in
  let f1 =
    Ir.func "t1" [ x ] [] [ t1; chk1; Everest_ir.Dialect_func.return ctx [] ]
  in
  let vs = Ift.analyze_func f1 in
  checki "uncleared check fires" 1 (List.length vs);
  checkb "check is the sink" true
    (String.equal (List.hd vs).Ift.op_name "sec.check");
  (* a check point cleared for Confidential accepts the tainted data *)
  let ctx = Ir.ctx () in
  let y = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let t2 = Ir_build.taint ctx y in
  let chk2 =
    Ir_build.check ctx (Ir.result t2)
      ~attrs:[ ("everest.security", Everest_ir.Attr.str "confidential") ]
  in
  let f2 =
    Ir.func "t2" [ y ] [] [ t2; chk2; Everest_ir.Dialect_func.return ctx [] ]
  in
  checki "cleared check passes" 0 (List.length (Ift.analyze_func f2))

let test_ift_region_yield_join () =
  (* a value classified Secret inside one scf.if arm keeps its level when
     it flows out through scf.yield and into a public sink *)
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let cond = Ir.fresh_value ctx Types.i1 in
  let iff =
    Ir_build.if_ ~ret_types:[ Types.tensor Types.F64 [ 8 ] ] ctx
      cond
      (fun ctx ->
        let cls = Sec.classify ctx x Sec.Secret in
        ([ cls ], [ Ir.result cls ]))
      (fun _ctx -> ([], [ x ]))
  in
  let sink = Everest_ir.Dialect_df.sink ctx "out" (Ir.result iff) in
  let f =
    Ir.func "branchy" [ x; cond ] []
      [ iff; sink; Everest_ir.Dialect_func.return ctx [] ]
  in
  let vs = Ift.analyze_func f in
  checki "secret escapes through yield" 1 (List.length vs);
  checkb "secret source" true ((List.hd vs).Ift.source_level = Sec.Secret)

let test_ift_fattr_arg_levels () =
  (* arguments of a function annotated Security Secret are analyzed at
     that level *)
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let sink = Everest_ir.Dialect_df.sink ctx "out" x in
  let f =
    Ir.func
      ~attrs:[ ("everest.security", Everest_ir.Attr.str "secret") ]
      "annotated" [ x ] []
      [ sink; Everest_ir.Dialect_func.return ctx [] ]
  in
  let vs = Ift.analyze_func f in
  checki "annotated arg leaks" 1 (List.length vs);
  checkb "secret from the fattr" true
    ((List.hd vs).Ift.source_level = Sec.Secret)

(* ---- monitors ------------------------------------------------------------------- *)

let test_timing_monitor () =
  let m = Monitor.timing ~threshold_sigma:4.0 () in
  (* train on ~N(10, 0.5) *)
  for i = 0 to 199 do
    Monitor.timing_train m (10.0 +. (0.5 *. sin (float_of_int i)))
  done;
  Monitor.timing_finalize m;
  checkb "normal sample passes" true (Monitor.timing_check m 10.2 = Monitor.Normal);
  checkb "outlier flagged" true
    (match Monitor.timing_check m 25.0 with Monitor.Anomalous _ -> true | _ -> false)

let test_range_monitor () =
  let m = Monitor.range () in
  List.iter (Monitor.range_train m) [ 0.0; 1.0; 2.0; 5.0 ];
  Monitor.range_finalize m;
  checkb "in range" true (Monitor.range_check m 4.9 = Monitor.Normal);
  checkb "slack respected" true (Monitor.range_check m 5.3 = Monitor.Normal);
  checkb "far outlier flagged" true
    (match Monitor.range_check m 50.0 with Monitor.Anomalous _ -> true | _ -> false)

let test_access_monitor () =
  let m = Monitor.access ~burst_threshold:4 () in
  (* train: stride-1 scan *)
  for a = 0 to 63 do Monitor.access_train m a done;
  Monitor.access_finalize m;
  (* normal stride-1 accesses *)
  let all_normal = ref true in
  for a = 100 to 120 do
    if Monitor.access_check m a <> Monitor.Normal then all_normal := false
  done;
  checkb "sequential ok" true !all_normal;
  (* attack: random-looking large strides *)
  let fired = ref false in
  List.iter
    (fun a ->
      match Monitor.access_check m a with
      | Monitor.Anomalous _ -> fired := true
      | Monitor.Normal -> ())
    [ 1000; 13; 777; 20000; 5; 91234; 77; 4242 ];
  checkb "scanning detected" true !fired

let test_size_monitor () =
  let m = Monitor.size () in
  List.iter (Monitor.size_train m) [ 100; 110; 95; 105; 98 ];
  Monitor.size_finalize m;
  checkb "typical ok" true (Monitor.size_check m 120 = Monitor.Normal);
  checkb "huge flagged" true
    (match Monitor.size_check m 1000 with Monitor.Anomalous _ -> true | _ -> false)

let test_policy () =
  let e = Monitor.classify_event "access" "burst" in
  let actions = Monitor.policy e in
  checkb "quarantines on scanning" true
    (List.mem Monitor.Quarantine_source actions);
  let e2 = Monitor.classify_event "timing" "z" in
  checkb "encrypts on side-channel suspicion" true
    (List.mem Monitor.Enable_encryption (Monitor.policy e2))

let prop_sha256_shape =
  QCheck.Test.make ~count:100 ~name:"SHA-256 digests are 32 bytes, deterministic"
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun s ->
      let d1 = Sha256.digest_string s and d2 = Sha256.digest_string s in
      Bytes.length d1 = 32 && Bytes.equal d1 d2)

let prop_hmac_distinguishes =
  QCheck.Test.make ~count:60 ~name:"HMAC differs on different messages"
    QCheck.(pair (string_of_size Gen.(int_range 1 50)) (string_of_size Gen.(int_range 1 50)))
    (fun (a, b) ->
      QCheck.assume (not (String.equal a b));
      let key = Bytes.of_string "k" in
      not
        (Bytes.equal
           (Hmac.hmac_sha256 ~key (Bytes.of_string a))
           (Hmac.hmac_sha256 ~key (Bytes.of_string b))))

let () =
  Alcotest.run "everest_security"
    [
      ( "aes",
        [ Alcotest.test_case "FIPS-197" `Quick test_aes_fips197;
          Alcotest.test_case "SP800-38A" `Quick test_aes_sp800_38a;
          Alcotest.test_case "CTR roundtrip" `Quick test_aes_ctr_roundtrip;
          QCheck_alcotest.to_alcotest prop_ctr_roundtrip ] );
      ( "sha256",
        [ Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "long input" `Slow test_sha256_long;
          QCheck_alcotest.to_alcotest prop_sha256_shape ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          QCheck_alcotest.to_alcotest prop_hmac_distinguishes ] );
      ( "aead",
        [ Alcotest.test_case "seal/open" `Quick test_seal_open;
          Alcotest.test_case "cost model" `Quick test_crypto_cost_model ] );
      ( "ift",
        [ Alcotest.test_case "leak detected" `Quick test_ift_detects_leak;
          Alcotest.test_case "encrypt declassifies" `Quick test_ift_encrypt_declassifies;
          Alcotest.test_case "cleared sink" `Quick test_ift_cleared_sink;
          Alcotest.test_case "flows through compute" `Quick test_ift_propagates_through_compute;
          Alcotest.test_case "decrypt reclassifies" `Quick test_ift_decrypt_reclassifies;
          Alcotest.test_case "taint/check" `Quick test_ift_taint_check;
          Alcotest.test_case "region yield join" `Quick test_ift_region_yield_join;
          Alcotest.test_case "fattr arg levels" `Quick test_ift_fattr_arg_levels ] );
      ( "monitors",
        [ Alcotest.test_case "timing" `Quick test_timing_monitor;
          Alcotest.test_case "range" `Quick test_range_monitor;
          Alcotest.test_case "access pattern" `Quick test_access_monitor;
          Alcotest.test_case "size" `Quick test_size_monitor;
          Alcotest.test_case "policy" `Quick test_policy ] );
    ]
