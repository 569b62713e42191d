(* `sec` dialect: the data-centric security annotations of EVEREST.

   Values are classified with confidentiality levels; encrypt/decrypt mark
   boundary crossings; `sec.taint`/`sec.check` express the dynamic
   information-flow-tracking contract the HLS flow instruments (TaintHLS). *)

open Ir

type level = Public | Internal | Confidential | Secret

let level_name = function
  | Public -> "public"
  | Internal -> "internal"
  | Confidential -> "confidential"
  | Secret -> "secret"

let level_of_name = function
  | "public" -> Some Public
  | "internal" -> Some Internal
  | "confidential" -> Some Confidential
  | "secret" -> Some Secret
  | _ -> None

let level_rank = function
  | Public -> 0 | Internal -> 1 | Confidential -> 2 | Secret -> 3

let level_leq a b = level_rank a <= level_rank b

let classify ctx v level =
  op ctx "sec.classify" [ v ] [ v.vty ]
    ~attrs:[ ("level", Attr.str (level_name level)) ]

let encrypt ctx v key =
  op ctx "sec.encrypt" [ v; key ] [ v.vty ] ~attrs:[ ("algo", Attr.str "aes128-ctr") ]

let verify_level (o : Ir.op) =
  match Ir.attr_str "level" o with
  | Some l when Option.is_some (level_of_name l) -> Dialect.ok
  | Some l -> Dialect.err "sec.classify: unknown level %S" l
  | None -> Dialect.err "sec.classify: missing level"

let register () =
  Dialect.register "sec.classify" ~doc:"Assign a confidentiality level."
    (Dialect.all
       [ Dialect.expect_operands 1; Dialect.expect_results 1;
         (fun o -> verify_level o) ]);
  List.iter
    (fun n ->
      Dialect.register n ~traits:[ Dialect.Pure ]
        ~doc:"Cryptographic boundary op."
        (Dialect.all [ Dialect.expect_operands 2; Dialect.expect_results 1;
                       Dialect.expect_attr "algo" ]))
    [ "sec.encrypt"; "sec.decrypt"; "sec.mac" ];
  List.iter
    (fun n ->
      Dialect.register n ~doc:"Dynamic information-flow tracking marker."
        (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ]))
    [ "sec.taint"; "sec.check" ];
  Dialect.register "sec.monitor" ~doc:"Attach a runtime anomaly monitor."
    (Dialect.all
       [ Dialect.expect_operands 1; Dialect.expect_results 1;
         Dialect.expect_attr "kind" ])
