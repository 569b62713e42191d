(* One alert lifecycle.  The condition is level-triggered: while it holds
   the alarm counts how long it has held, and fires once that reaches
   [for_s]; the first evaluation that does not hold clears the alarm and
   the hold-down.  [edges] counts rising edges, so a flapping condition
   and a sustained one are told apart by edges, not by evaluations. *)

type t = {
  for_s : float;
  mutable pending_since : float;  (* when the condition began holding; nan if not *)
  mutable firing : bool;
  mutable edges : int;
  mutable since : float;  (* when the current firing began; nan if not firing *)
}

let create ?(for_s = 0.0) () =
  { for_s; pending_since = Float.nan; firing = false; edges = 0;
    since = Float.nan }

let update a ~now holds =
  if holds then begin
    if Float.is_nan a.pending_since then a.pending_since <- now;
    let rising = (not a.firing) && now -. a.pending_since >= a.for_s in
    if rising then begin
      a.firing <- true;
      a.since <- now;
      a.edges <- a.edges + 1
    end;
    rising
  end
  else begin
    a.pending_since <- Float.nan;
    a.firing <- false;
    a.since <- Float.nan;
    false
  end

let firing a = a.firing
let edges a = a.edges
let since a = a.since

let restore a ~firing ~edges =
  a.pending_since <- Float.nan;
  a.firing <- firing;
  a.edges <- edges;
  a.since <- Float.nan
