(* Security walkthrough: the data-centric protection story of §III-A/B.

   - classify data, let the static IFT audit catch a leak,
   - fix it with encryption at the boundary (sealed with real AES-CTR+HMAC),
   - see the compiler force DIFT-instrumented hardware variants,
   - watch the runtime protection layer quarantine a poisoned stream.

   Run with:  dune exec examples/secure_pipeline.exe *)

module Ir = Everest_ir
module Sec = Everest_security
module TE = Everest_dsl.Tensor_expr
module Dsl = Everest_dsl

let () = Ir.Registry.register_all ()

let () =
  Format.printf "== EVEREST security walkthrough ==@.";

  (* 1. a leaky kernel: secret data flows to a public sink *)
  let ctx = Ir.Ir.ctx () in
  let x = Ir.Ir.fresh_value ctx (Ir.Types.tensor Ir.Types.F64 [ 16 ]) in
  let key = Ir.Ir.fresh_value ctx Ir.Types.f64 in
  let cls = Ir.Dialect_sec.classify ctx x Ir.Dialect_sec.Secret in
  let leak_sink = Ir.Dialect_df.sink ctx "telemetry" (Ir.Ir.result cls) in
  let leaky =
    Ir.Ir.func "leaky" [ x; key ] []
      [ cls; leak_sink; Ir.Dialect_func.return ctx [] ]
  in
  Format.printf "@.static IFT audit of the leaky kernel:@.";
  List.iter
    (fun v -> Format.printf "  VIOLATION: %a@." Sec.Ift.pp_violation v)
    (Sec.Ift.analyze_func leaky);

  (* 2. the fix: encrypt before the boundary *)
  let ctx = Ir.Ir.ctx () in
  let x = Ir.Ir.fresh_value ctx (Ir.Types.tensor Ir.Types.F64 [ 16 ]) in
  let key = Ir.Ir.fresh_value ctx Ir.Types.f64 in
  let cls = Ir.Dialect_sec.classify ctx x Ir.Dialect_sec.Secret in
  let enc = Ir.Dialect_sec.encrypt ctx (Ir.Ir.result cls) key in
  let sink = Ir.Dialect_df.sink ctx "telemetry" (Ir.Ir.result enc) in
  let fixed =
    Ir.Ir.func "fixed" [ x; key ] []
      [ cls; enc; sink; Ir.Dialect_func.return ctx [] ]
  in
  Format.printf "after adding sec.encrypt: %d violations@."
    (List.length (Sec.Ift.analyze_func fixed));

  (* 3. the encryption itself, with the real primitives *)
  let keys = Sec.Cipher.derive_keys "everest-demo-master" in
  let payload = Bytes.of_string "turbine 7: bearing temperature anomaly" in
  let sealed = Sec.Cipher.seal keys payload in
  Format.printf "@.sealed payload: nonce=%s ct=%s tag=%s...@."
    (Sec.Aes.to_hex sealed.Sec.Cipher.nonce)
    (Sec.Aes.to_hex (Bytes.sub sealed.Sec.Cipher.ct 0 8))
    (Sec.Aes.to_hex (Bytes.sub sealed.Sec.Cipher.tag 0 8));
  (match Sec.Cipher.open_ keys sealed with
  | Ok pt -> Format.printf "authentic decrypt: %S@." (Bytes.to_string pt)
  | Error _ -> assert false);
  let tampered = { sealed with Sec.Cipher.ct = Bytes.map (fun c -> Char.chr (Char.code c lxor 1)) sealed.Sec.Cipher.ct } in
  (match Sec.Cipher.open_ keys tampered with
  | Error Sec.Cipher.Bad_tag -> Format.printf "tampered ciphertext: rejected (bad tag)@."
  | Ok _ -> assert false);

  (* 4. confidential kernels get DIFT-instrumented hardware variants *)
  let e = TE.matmul (TE.input "a" [ 64; 64 ]) (TE.input "b" [ 64; 64 ]) in
  let vs =
    Everest_compiler.Variants.generate
      ~annots:[ Dsl.Annot.Security Ir.Dialect_sec.Secret ]
      e
  in
  Format.printf "@.variants of the secret matmul kernel:@.";
  List.iter
    (fun v -> Format.printf "  %a@." Everest_compiler.Variants.pp v)
    (Everest_compiler.Variants.pareto vs);

  (* 5. runtime protection: poisoned sensor stream gets quarantined *)
  let layer = Everest_runtime.Protection.create () in
  let s = Everest_runtime.Protection.register layer in
  for _ = 1 to 300 do
    Everest_runtime.Protection.train s ~values:[ 55.0; 61.0; 58.5 ] ~bytes:512
      ~latency_s:0.004
  done;
  Everest_runtime.Protection.finalize s;
  let show label result =
    Format.printf "  %-18s -> %s@." label
      (match result with
      | Everest_runtime.Protection.Accepted -> "accepted"
      | Everest_runtime.Protection.Rejected r -> "rejected (" ^ r ^ ")")
  in
  Format.printf "@.protection layer on the SCADA stream:@.";
  show "clean batch"
    (Everest_runtime.Protection.admit layer s ~values:[ 57.0; 60.2 ] ~bytes:520
       ~latency_s:0.004);
  show "poisoned batch"
    (Everest_runtime.Protection.admit layer s ~values:[ 4.2e7 ] ~bytes:512
       ~latency_s:0.004);
  Format.printf "  alerts=%d force_encryption=%b hardened=%s@."
    layer.Everest_runtime.Protection.total_alerts
    s.Everest_runtime.Protection.force_encryption
    (Option.value ~default:"-" s.Everest_runtime.Protection.hardened_variant);
  let overhead =
    Everest_runtime.Protection.transfer_overhead_s s ~bytes:(1 lsl 20)
      ~accelerated:true ~clock_hz:2.5e8
  in
  Format.printf "  forced-encryption cost on a 1 MiB transfer: %.2f ms (accelerated)@."
    (overhead *. 1e3)
