(* Data-characteristics and requirement annotations.

   These are the "extra characteristics of the algorithms and data" the
   EVEREST DSLs attach to kernels and data so that compilation and runtime
   selection become data-driven (paper §III-A). *)

open Everest_ir

type access_pattern = Sequential | Strided of int | Random | Streaming

type t =
  | Access of access_pattern
  | Size_hint of int  (* expected bytes *)
  | Element_range of float * float  (* expected value range, drives monitors *)
  | Locality of string  (* where the data naturally lives, e.g. "edge:paris" *)
  | Security of Dialect_sec.level
  | Integrity_required
  | Latency_bound_ms of float
  | Throughput_hint of float  (* items per second *)
  | Reuse_factor of int  (* how often each element is touched *)
  | Batch of int
  | Ramp_sensitive  (* use case A: output quality degrades on ramps *)

let access_name = function
  | Sequential -> "sequential"
  | Strided s -> Printf.sprintf "strided<%d>" s
  | Random -> "random"
  | Streaming -> "streaming"

(* Attribute encoding: one IR attribute per annotation. *)
let to_attr = function
  | Access p -> ("everest.access", Attr.str (access_name p))
  | Size_hint b -> ("everest.size_hint", Attr.int b)
  | Element_range (lo, hi) ->
      ("everest.range", Attr.list [ Attr.float lo; Attr.float hi ])
  | Locality l -> ("everest.locality", Attr.str l)
  | Security lvl -> ("everest.security", Attr.str (Dialect_sec.level_name lvl))
  | Integrity_required -> ("everest.integrity", Attr.bool true)
  | Latency_bound_ms ms -> ("everest.latency_ms", Attr.float ms)
  | Throughput_hint t -> ("everest.throughput", Attr.float t)
  | Reuse_factor r -> ("everest.reuse", Attr.int r)
  | Batch b -> ("everest.batch", Attr.int b)
  | Ramp_sensitive -> ("everest.ramp_sensitive", Attr.bool true)

let to_attrs anns = List.map to_attr anns

let security_level anns =
  List.fold_left
    (fun acc a ->
      match a with
      | Security l ->
          if Dialect_sec.level_leq acc l then l else acc
      | _ -> acc)
    Dialect_sec.Public anns
