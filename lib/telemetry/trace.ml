(* Hierarchical spans over a pluggable clock with a bounded in-memory sink.

   A span is one timed region with attributes; parent/child nesting comes
   either from an explicit [?parent] (asynchronous code: the executor opens a
   task span, transfers nest under it across Desim callbacks) or from the
   tracer's stack of currently open [with_span] scopes (synchronous code:
   compiler passes, DSE stages).

   The sink keeps the first [capacity] started spans and counts the rest as
   dropped — telemetry must never grow without bound inside a long run. *)

type attr_value = S of string | I of int | F of float | B of bool

type attr = string * attr_value

type span = {
  id : int;
  parent : int option;
  name : string;
  track : int;  (* render lane: Chrome trace tid; executor uses one per node *)
  start_s : float;
  mutable end_s : float;  (* < start_s while the span is still open *)
  mutable attrs : attr list;
}

type t = {
  clock : Clock.t;
  capacity : int;
  mutable pool : span array;  (* slots [0, n_spans) hold spans in start order *)
  mutable n_spans : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable stack : span list;  (* open [with_span] scopes, innermost first *)
  mutable track_names : (int * string) list;
}

(* Filler for unused pool slots; never handed out. *)
let null_span =
  { id = -1; parent = None; name = ""; track = 0; start_s = 0.0; end_s = 0.0;
    attrs = [] }

let create ?(capacity = 65536) ?(clock = Clock.wall) () =
  { clock; capacity; pool = [||]; n_spans = 0; dropped = 0; next_id = 0;
    stack = []; track_names = [] }

(* The shared disabled tracer: records nothing, costs (almost) nothing.
   Instrumented code paths default to it so uninstrumented runs stay fast. *)
let noop = create ~capacity:0 ~clock:(fun () -> 0.0) ()

let is_noop t = t == noop

let name_track t track name =
  if not (List.mem_assoc track t.track_names) then
    t.track_names <- (track, name) :: t.track_names

let named_tracks t = List.sort compare t.track_names

let start t ?parent ?(track = 0) ?(attrs = []) name =
  let parent =
    match parent with
    | Some _ as p -> p
    | None -> ( match t.stack with [] -> None | s :: _ -> Some s.id)
  in
  let s =
    { id = t.next_id; parent; name; track; start_s = t.clock ();
      end_s = neg_infinity; attrs }
  in
  t.next_id <- t.next_id + 1;
  if t.n_spans < t.capacity then begin
    (* pooled sink: amortized O(1) append, no cons cell per span — at 10⁶
       spans the historical list cost dominated report forcing *)
    if t.n_spans = Array.length t.pool then begin
      let cap = min t.capacity (max 256 (2 * t.n_spans)) in
      let bigger = Array.make cap null_span in
      Array.blit t.pool 0 bigger 0 t.n_spans;
      t.pool <- bigger
    end;
    t.pool.(t.n_spans) <- s;
    t.n_spans <- t.n_spans + 1
  end
  else t.dropped <- t.dropped + 1;
  s

(* Prepend rather than dedupe: [attr] reads the first binding, so late
   attributes shadow earlier ones and the hot path stays allocation-light
   (exporters dedupe on their own, cold, path). *)
let finish t ?attrs s =
  (match attrs with
  | None | Some [] -> ()
  | Some attrs -> s.attrs <- attrs @ s.attrs);
  s.end_s <- t.clock ()

let finished s = s.end_s >= s.start_s
let duration s = if finished s then s.end_s -. s.start_s else 0.0

(* Scratch span handed to callbacks when tracing is disabled, so [with_span]
   bodies always receive a span they may set attributes on. *)
let dummy_span () =
  { id = -1; parent = None; name = "(disabled)"; track = 0; start_s = 0.0;
    end_s = 0.0; attrs = [] }

(* Synchronous scoped span: nesting tracked on the tracer's stack. *)
let with_span t ?(attrs = []) name f =
  if is_noop t then f (dummy_span ())
  else begin
    let s = start t ~attrs name in
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        (match t.stack with
        | top :: rest when top == s -> t.stack <- rest
        | _ -> ());
        finish t s)
      (fun () -> f s)
  end

(* Completed+open spans in start order. *)
let spans t =
  let acc = ref [] in
  for i = t.n_spans - 1 downto 0 do
    acc := t.pool.(i) :: !acc
  done;
  !acc

(* Same spans, newest first. *)
let spans_rev t =
  let acc = ref [] in
  for i = 0 to t.n_spans - 1 do
    acc := t.pool.(i) :: !acc
  done;
  !acc

(* Zero-allocation walk in start order.  [unsafe_get] is fine: slots
   [0, n_spans) are always live spans by the sink invariant. *)
let iter t f =
  for i = 0 to t.n_spans - 1 do
    f (Array.unsafe_get t.pool i)
  done

let span_count t = t.n_spans
let next_span_id t = t.next_id
let dropped t = t.dropped

let attr s key = List.assoc_opt key s.attrs

let attr_int s key =
  match attr s key with Some (I i) -> Some i | _ -> None

let attr_string s key =
  match attr s key with Some (S v) -> Some v | _ -> None

(* Allocation-free variants for per-span hot loops (the report builder
   walks 10⁶-span logs): no [option] wrapper, first binding wins as in
   [attr].  The recursion lives at top level — an inner [let rec] would
   allocate a fresh closure per call, which at two lookups per span is
   megawords of garbage on a million-span walk. *)
let rec attr_is_from attrs key v =
  match attrs with
  | [] -> false
  | (k, value) :: rest ->
      if String.equal k key then
        match value with S x -> String.equal x v | _ -> false
      else attr_is_from rest key v

let attr_is s key v = attr_is_from s.attrs key v

let rec attr_int_from attrs key default =
  match attrs with
  | [] -> default
  | (k, value) :: rest ->
      if String.equal k key then
        match value with I i -> i | _ -> default
      else attr_int_from rest key default

let attr_int_def s key ~default = attr_int_from s.attrs key default
