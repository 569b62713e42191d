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

let access_of_name s =
  if String.equal s "sequential" then Some Sequential
  else if String.equal s "random" then Some Random
  else if String.equal s "streaming" then Some Streaming
  else
    try Scanf.sscanf s "strided<%d>" (fun k -> Some (Strided k))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

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

let of_attr (key, (v : Attr.t)) =
  match (key, v) with
  | "everest.access", Attr.Str s ->
      Option.map (fun p -> Access p) (access_of_name s)
  | "everest.size_hint", Attr.Int b -> Some (Size_hint b)
  | "everest.range", Attr.List [ a; b ] -> (
      match (Attr.as_float a, Attr.as_float b) with
      | Some lo, Some hi -> Some (Element_range (lo, hi))
      | _ -> None)
  | "everest.locality", Attr.Str l -> Some (Locality l)
  | "everest.security", Attr.Str s ->
      Option.map (fun l -> Security l) (Dialect_sec.level_of_name s)
  | "everest.integrity", Attr.Bool true -> Some Integrity_required
  | "everest.latency_ms", v ->
      Option.map (fun f -> Latency_bound_ms f) (Attr.as_float v)
  | "everest.throughput", v ->
      Option.map (fun f -> Throughput_hint f) (Attr.as_float v)
  | "everest.reuse", Attr.Int r -> Some (Reuse_factor r)
  | "everest.batch", Attr.Int b -> Some (Batch b)
  | "everest.ramp_sensitive", Attr.Bool true -> Some Ramp_sensitive
  | _ -> None

let of_attrs attrs = List.filter_map of_attr attrs

let security_level anns =
  List.fold_left
    (fun acc a ->
      match a with
      | Security l ->
          if Dialect_sec.level_leq acc l then l else acc
      | _ -> acc)
    Dialect_sec.Public anns

let access anns =
  List.find_map (function Access p -> Some p | _ -> None) anns

let latency_bound anns =
  List.find_map (function Latency_bound_ms f -> Some f | _ -> None) anns
