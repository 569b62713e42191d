(* One alert lifecycle.  The condition is level-triggered: the first
   evaluation that holds fires the alarm, and the first that does not
   clears it.  [edges] counts rising edges, so a flapping condition and a
   sustained one are told apart by edges, not by evaluations. *)

type t = {
  mutable firing : bool;
  mutable edges : int;
  mutable since : float;  (* when the current firing began; nan if not firing *)
}

let create () = { firing = false; edges = 0; since = Float.nan }

let update a ~now holds =
  if holds then begin
    let rising = not a.firing in
    if rising then begin
      a.firing <- true;
      a.since <- now;
      a.edges <- a.edges + 1
    end;
    rising
  end
  else begin
    a.firing <- false;
    a.since <- Float.nan;
    false
  end

let firing a = a.firing
let edges a = a.edges
let since a = a.since

let restore a ~firing ~edges =
  a.firing <- firing;
  a.edges <- edges;
  a.since <- Float.nan
