(* The run analyzer: critical path and utilization from one walk over a
   tracer's pooled sink (start order), into flat task-id / track-id /
   span-id indexed arrays — no per-task span lists, no hashtables — with
   the name/dependency/node callbacks consulted only for tasks on the
   walked chain.  At 10⁶ spans the report must stay inside its
   <5%-of-run budget (E17), so the loop also avoids boxed floats and
   closure allocation. *)

module Trace = Everest_telemetry.Trace

(* Closure-free prefix test for the span-classification hot loop:
   [String.starts_with] builds an inner closure per call (non-flambda), and
   at ~1.6M classification calls on a 10⁶-span log that closure garbage
   alone was megawords. *)
let rec prefix_matches s p i n =
  i >= n
  || (String.unsafe_get s i = String.unsafe_get p i
     && prefix_matches s p (i + 1) n)

let has_prefix s p =
  let n = String.length p in
  String.length s >= n && prefix_matches s p 0 n

(* The backward walk over the flat activity arrays (slot [i] absent when
   [finish.(i) < 0]), assembled into the attributed path record. *)
let critical_path ~start ~finish ~work ~deps ~name ~node :
    Critical_path.t option =
  let n = Array.length finish in
  let anchor = ref (-1) in
  let makespan = ref 0.0 in
  let total_work = ref 0.0 in
  for i = 0 to n - 1 do
    let f = finish.(i) in
    if f >= 0.0 then begin
      if f > !makespan then makespan := f;
      total_work := !total_work +. work.(i);
      (* ascending scan: a strictly later finish replaces, a tie keeps the
         smaller (= earlier) id *)
      if !anchor < 0 || f > finish.(!anchor) then anchor := i
    end
  done;
  if !anchor < 0 then None
  else begin
    let rec walk i chain =
      let best =
        List.fold_left
          (fun best d ->
            if d < 0 || d >= n || finish.(d) < 0.0 then best
            else
              match best with
              | None -> Some d
              | Some b ->
                  if
                    finish.(d) > finish.(b)
                    || (finish.(d) = finish.(b) && d < b)
                  then Some d
                  else best)
          None (deps i)
      in
      match best with
      | None -> i :: chain
      | Some p -> walk p (i :: chain)
    in
    let ids = walk !anchor [] in
    let head = List.hd ids in
    let steps =
      List.rev
        (fst
           (List.fold_left
              (fun (acc, prev_end) i ->
                let seg = finish.(i) -. prev_end in
                let self = Float.min (Float.max 0.0 work.(i)) seg in
                ( { Critical_path.st_name = name i; st_node = node i;
                    st_start_s = start.(i); st_finish_s = finish.(i);
                    st_self_s = self; st_wait_s = seg -. self }
                  :: acc,
                  finish.(i) ))
              ([], start.(head)) ids))
    in
    let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 steps in
    Some
      { Critical_path.steps;
        duration_s = finish.(!anchor) -. start.(head);
        work_s = sum (fun s -> s.Critical_path.st_self_s);
        wait_s = sum (fun s -> s.Critical_path.st_wait_s);
        makespan_s = !makespan;
        total_work_s = !total_work }
  end

let analyze ~horizon ~finish ~deps ~name ~node ~waits tracer =
  if Trace.span_count tracer = 0 then (None, None)
  else begin
    let tasks_total = Array.length finish in
    let max_track = ref 0 in
    Trace.iter tracer (fun s ->
        if s.Trace.track > !max_track then max_track := s.Trace.track);
    let n_tracks = !max_track + 1 in
    (* per-track utilization accumulators *)
    let tr_tasks = Array.make n_tracks 0 in
    let tr_attempts = Array.make n_tracks 0 in
    let tr_span = Array.make n_tracks 0.0 in
    let tr_xfer = Array.make n_tracks 0.0 in
    let tr_busy = Array.make n_tracks 0.0 in
    let tr_cursor = Array.make n_tracks 0.0 in
    let tr_node = Array.make n_tracks None in
    (* top idle gaps per track, kept sorted by length; ties keep arrival
       (= start) order *)
    let max_gaps = 3 in
    let g_start = Array.make (n_tracks * max_gaps) 0.0 in
    let g_len = Array.make (n_tracks * max_gaps) 0.0 in
    let g_count = Array.make n_tracks 0 in
    (* the gap start/length travel through an unboxed scratch slot instead
       of function arguments: float parameters to a non-inlined call are
       boxed (uniform representation), and gaps are frequent enough on a
       10⁶-span log for that to show up *)
    let g_tmp = Array.make 2 0.0 in
    let add_gap t =
      let gs = Array.unsafe_get g_tmp 0 and gl = Array.unsafe_get g_tmp 1 in
      let base = t * max_gaps in
      let k = ref 0 in
      while !k < g_count.(t) && gl <= g_len.(base + !k) do incr k done;
      if !k < max_gaps then begin
        let last = min g_count.(t) (max_gaps - 1) in
        for j = last downto !k + 1 do
          g_start.(base + j) <- g_start.(base + j - 1);
          g_len.(base + j) <- g_len.(base + j - 1)
        done;
        g_start.(base + !k) <- gs;
        g_len.(base + !k) <- gl;
        if g_count.(t) < max_gaps then g_count.(t) <- g_count.(t) + 1
      end
    in
    (* per-task winner tracking (span ids are dense within a tracer
       generation, so transfer-under-attempt is a flat array) *)
    let max_id = Trace.next_span_id tracer in
    let xfer_under = Array.make max_id 0.0 in
    let t_start = Array.make tasks_total infinity in
    (* per-task winner, all unboxed: span id for the nested-transfer
       lookup, duration, track, and 0/1/2 = none/finished/ok *)
    let w_id = Array.make tasks_total (-1) in
    let w_dur = Array.make tasks_total 0.0 in
    let w_trk = Array.make tasks_total 0 in
    let w_stat = Array.make tasks_total 0 in
    (* Index safety in the unsafe accesses below: [t] is a span track,
       bounded by the max-track scan over the same log above; [i] and [p]
       are range-checked explicitly before use.  With ~15 array touches per
       span, bounds checks alone are a measurable slice of the 10⁶-span
       walk. *)
    Trace.iter tracer (fun (s : Trace.span) ->
        if has_prefix s.Trace.name "task:" then begin
          let t = s.Trace.track in
          Array.unsafe_set tr_attempts t (Array.unsafe_get tr_attempts t + 1);
          let ok = Trace.attr_is s "status" "ok" in
          if ok then
            Array.unsafe_set tr_tasks t (Array.unsafe_get tr_tasks t + 1);
          (match Array.unsafe_get tr_node t with
          | None -> Array.unsafe_set tr_node t (Trace.attr_string s "node")
          | Some _ -> ());
          let fin = s.Trace.end_s >= s.Trace.start_s in
          let dur = if fin then s.Trace.end_s -. s.Trace.start_s else 0.0 in
          if fin then begin
            Array.unsafe_set tr_span t (Array.unsafe_get tr_span t +. dur);
            (* online interval merge, clamped to [0, horizon]: spans arrive
               in start order per track, so one cursor per track replaces a
               sorted interval list (and inline comparisons replace
               Float.min/max, whose boxed returns dominated allocation at
               1e6 spans) *)
            let s0 = s.Trace.start_s in
            let s0 =
              if s0 < 0.0 then 0.0 else if s0 > horizon then horizon else s0
            in
            let e0 = s.Trace.end_s in
            let e0 =
              if e0 < 0.0 then 0.0 else if e0 > horizon then horizon else e0
            in
            let cursor = Array.unsafe_get tr_cursor t in
            if e0 <= cursor then ()
            else if s0 > cursor then begin
              Array.unsafe_set tr_busy t
                (Array.unsafe_get tr_busy t +. (e0 -. s0));
              Array.unsafe_set g_tmp 0 cursor;
              Array.unsafe_set g_tmp 1 (s0 -. cursor);
              add_gap t;
              Array.unsafe_set tr_cursor t e0
            end
            else begin
              Array.unsafe_set tr_busy t
                (Array.unsafe_get tr_busy t +. (e0 -. cursor));
              Array.unsafe_set tr_cursor t e0
            end
          end;
          let i = Trace.attr_int_def s "task" ~default:(-1) in
          if i >= 0 && i < tasks_total then begin
            if s.Trace.start_s < Array.unsafe_get t_start i then
              Array.unsafe_set t_start i s.Trace.start_s;
            if ok || (fin && Array.unsafe_get w_stat i < 2) then begin
              Array.unsafe_set w_id i s.Trace.id;
              Array.unsafe_set w_dur i dur;
              Array.unsafe_set w_trk i t;
              Array.unsafe_set w_stat i (if ok then 2 else 1)
            end
          end
        end
        else if has_prefix s.Trace.name "xfer:" then begin
          let t = s.Trace.track in
          let d =
            if s.Trace.end_s >= s.Trace.start_s then
              s.Trace.end_s -. s.Trace.start_s
            else 0.0
          in
          Array.unsafe_set tr_xfer t (Array.unsafe_get tr_xfer t +. d);
          match s.Trace.parent with
          | Some p when p >= 0 && p < max_id ->
              Array.unsafe_set xfer_under p (Array.unsafe_get xfer_under p +. d)
          | _ -> ()
        end);
    (* flat per-task activity arrays for the critical-path walk: the
       winner's self time with nested pull time subtracted, absent tasks
       (unfinished, or never attempted in this log) marked by a negative
       finish *)
    let act_finish = Array.make tasks_total (-1.0) in
    let act_work = Array.make tasks_total 0.0 in
    for i = 0 to tasks_total - 1 do
      if finish.(i) >= 0.0 && t_start.(i) < infinity then begin
        act_finish.(i) <- finish.(i);
        if w_id.(i) >= 0 then begin
          let xfer = if w_id.(i) < max_id then xfer_under.(w_id.(i)) else 0.0 in
          let w = w_dur.(i) -. xfer in
          act_work.(i) <- (if w > 0.0 then w else 0.0)
        end
      end
    done;
    let cp =
      critical_path ~start:t_start ~finish:act_finish ~work:act_work ~deps
        ~name ~node:(fun i ->
          (* every attempt span on a track carries that track's node
             attribute, so the track's cached attribute stands in for the
             winner's own *)
          if w_id.(i) < 0 then node i
          else match tr_node.(w_trk.(i)) with Some n -> n | None -> node i)
    in
    let track_names = Trace.named_tracks tracer in
    let nodes = ref [] in
    for t = n_tracks - 1 downto 0 do
      if tr_attempts.(t) > 0 then begin
        if horizon -. tr_cursor.(t) > 0.0 then begin
          g_tmp.(0) <- tr_cursor.(t);
          g_tmp.(1) <- horizon -. tr_cursor.(t);
          add_gap t
        end;
        let gaps = ref [] in
        for k = g_count.(t) - 1 downto 0 do
          gaps :=
            (g_start.((t * max_gaps) + k), g_len.((t * max_gaps) + k)) :: !gaps
        done;
        let node =
          match List.assoc_opt t track_names with
          | Some n -> n
          | None -> (
              match tr_node.(t) with
              | Some n -> n
              | None -> Printf.sprintf "track%d" t)
        in
        let busy = tr_busy.(t) in
        nodes :=
          { Utilization.nu_node = node; nu_track = t; nu_tasks = tr_tasks.(t);
            nu_attempts = tr_attempts.(t); nu_busy_s = busy;
            nu_span_s = tr_span.(t); nu_xfer_s = tr_xfer.(t);
            nu_wait_s = Option.value ~default:0.0 (List.assoc_opt node waits);
            nu_util = (if horizon > 0.0 then busy /. horizon else 0.0);
            nu_idle_s = Float.max 0.0 (horizon -. busy);
            nu_gaps = !gaps }
          :: !nodes
      end
    done;
    (cp, Some { Utilization.u_horizon_s = horizon; u_nodes = !nodes })
  end
