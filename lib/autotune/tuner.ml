(* The runtime autotuner: selection + online adaptation.

   Wraps the selector with an observation loop: after every execution the
   measured metrics update the knowledge (EMA), so sustained drifts in the
   system state (contention, input changes, degraded links) move future
   selections — the "dynamic hardware-software adaptation strategy" of
   Fig. 2.  The tuner writes no metrics: [selections] and [switches] are
   its account, and whoever runs the loop publishes them. *)

type t = {
  knowledge : Knowledge.t;
  goal : Goal.t;
  alpha : float;
  mutable last : Selector.decision option;
  mutable selections : int;
  mutable switches : int;
}

let create knowledge goal =
  { knowledge; goal; alpha = 0.3; last = None; selections = 0; switches = 0 }

(* Keep the current variant unless the challenger is better by more than
   this relative margin. *)
let hysteresis = 0.1

(* With hysteresis: if the previously selected variant is still feasible and
   within (1 + hysteresis) of the challenger's score, stick with it —
   avoids thrashing between statistically indistinguishable variants. *)
let select (t : t) ~features =
  let fresh = Selector.select t.knowledge t.goal ~features in
  let d =
    match (t.last, fresh) with
    | Some prev, Some next
      when not
             (String.equal prev.Selector.point.Knowledge.variant
                next.Selector.point.Knowledge.variant) -> (
        let prev_name = prev.Selector.point.Knowledge.variant in
        let cluster = Knowledge.nearest_cluster t.knowledge ~features in
        match
          List.find_opt
            (fun p -> String.equal p.Knowledge.variant prev_name)
            cluster
        with
        | Some prev_point
          when List.for_all (Goal.satisfies prev_point)
                 (List.filter
                    (fun c -> not (List.memq c next.Selector.relaxed))
                    t.goal.Goal.constraints)
               && (let s_prev = Goal.score t.goal prev_point in
                   let s_next = Goal.score t.goal next.Selector.point in
                   s_prev <= s_next +. (hysteresis *. Float.abs s_next)) ->
            Some { next with Selector.point = prev_point }
        | _ -> fresh)
    | _ -> fresh
  in
  t.selections <- t.selections + 1;
  (match (t.last, d) with
  | Some prev, Some next
    when not
           (String.equal prev.Selector.point.Knowledge.variant
              next.Selector.point.Knowledge.variant) ->
      t.switches <- t.switches + 1
  | _ -> ());
  t.last <- d;
  d

let observe (t : t) ~variant ~features ~measured =
  Knowledge.observe ~alpha:t.alpha t.knowledge ~variant ~features ~measured

(* Checkpoint/restore.  The behavioural core of a tuner is its knowledge
   points (EMA state), the identity of the last-selected variant (the
   hysteresis anchor — only its name is ever consulted) and the
   selection/switch counters. *)
type persisted = {
  p_points : Knowledge.point list;
  p_last_variant : string option;
  p_selections : int;
  p_switches : int;
}

let export (t : t) =
  {
    p_points = t.knowledge.Knowledge.points;
    p_last_variant =
      Option.map (fun d -> d.Selector.point.Knowledge.variant) t.last;
    p_selections = t.selections;
    p_switches = t.switches;
  }

let import (t : t) p =
  t.knowledge.Knowledge.points <- p.p_points;
  (t.last <-
     Option.map
       (fun variant ->
         (* Synthetic decision: [select] only reads the variant name and
            re-resolves the point from the live knowledge. *)
         { Selector.point = { Knowledge.variant; features = []; metrics = [] };
           relaxed = [] })
       p.p_last_variant);
  t.selections <- p.p_selections;
  t.switches <- p.p_switches
