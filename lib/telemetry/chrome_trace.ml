(* Chrome trace_event JSON exporter.

   Emits the "JSON object format" variant ({"traceEvents":[...]}) with
   complete ("X") duration events, so a tracer's span log opens directly in
   chrome://tracing or Perfetto.  Timestamps are microseconds; the tracer's
   clock domain (wall or simulated seconds) carries through unchanged, which
   is exactly what we want — an executor trace laid out in simulated time.

   Span tracks map to Chrome thread ids and named tracks become thread_name
   metadata events, so executor traces show one lane per platform node.
   Numbers print exactly (see [Json_text]), so a microsecond-wide span late
   in a long run keeps its place. *)

open Json_text

let span_json ~pid (s : Trace.span) =
  let us t = t *. 1e6 in
  (* attrs may carry shadowed duplicates (Trace.finish prepends); keep the
     first binding of each key, like Trace.attr does.  The synthetic
     "parent" arg below counts as already bound, so a user attribute of the
     same name cannot produce a duplicate JSON key. *)
  let attrs =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, seen) (k, v) ->
              if List.mem_assoc k seen then (acc, seen)
              else ((k, v) :: acc, (k, ()) :: seen))
            ([], [ ("parent", ()) ])
            s.Trace.attrs))
  in
  let args =
    ("parent",
     match s.Trace.parent with
     | Some p -> string_of_int p
     | None -> "-1")
    :: List.map (fun (k, (v : Trace.attr_value)) ->
           ( k,
             match v with
             | Trace.S str -> Printf.sprintf "\"%s\"" (escape str)
             | Trace.I i -> string_of_int i
             | Trace.F f -> number f
             | Trace.B b -> if b then "true" else "false" ))
         attrs
  in
  let args_s =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) v) args)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"everest\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\
     \"pid\":%d,\"tid\":%d,\"args\":{%s}}"
    (escape s.Trace.name)
    (number (us s.Trace.start_s))
    (number (us (Trace.duration s)))
    pid s.Trace.track args_s

let thread_name_json ~pid track name =
  Printf.sprintf
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
     \"args\":{\"name\":\"%s\"}}"
    pid track (escape name)

let process_name_json ~pid name =
  Printf.sprintf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
     \"args\":{\"name\":\"%s\"}}"
    pid (escape name)

(* A Chrome-trace process: one tracer's spans (or a bare span log) under a
   pid, with named tracks as threads.  Multiple clock domains — wall-clock
   compile spans, simulated-time executor and orchestrator spans — export as
   separate processes of one trace file. *)
type proc = {
  pid : int;
  pname : string;
  tracks : (int * string) list;
  proc_spans : Trace.span list;
}

let of_tracer ?(pid = 1) ?(process_name = "everest") t =
  { pid; pname = process_name; tracks = Trace.named_tracks t;
    proc_spans = Trace.spans t }

let of_spans ?(pid = 1) ?(process_name = "everest") ?(tracks = []) spans =
  { pid; pname = process_name; tracks; proc_spans = spans }

(* Only finished spans are exported. *)
let processes_to_string procs =
  let events =
    List.concat_map
      (fun p ->
        process_name_json ~pid:p.pid p.pname
        :: List.map
             (fun (track, n) -> thread_name_json ~pid:p.pid track n)
             p.tracks
        @ List.filter_map
            (fun s ->
              if Trace.finished s then Some (span_json ~pid:p.pid s) else None)
            p.proc_spans)
      procs
  in
  Printf.sprintf
    "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ms\"}"
    (String.concat ",\n" events)

let write_processes path procs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (processes_to_string procs))
