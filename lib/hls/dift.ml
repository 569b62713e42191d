(* Dynamic information-flow tracking instrumentation (TaintHLS, paper [18]).

   A shadow datapath propagates one taint bit per value in parallel with the
   real computation: taint(out) = OR of taint(inputs).  Checks are inserted
   at stores (data leaving the accelerator).  The shadow logic adds area but
   no latency, matching the TaintHLS design point. *)

type check = { store_node : int; array : string option }

type instrumented = {
  checks : check list;
  shadow_area : Estimate.area;
}

let instrument (g : Cdfg.t) : instrumented =
  let checks =
    Array.to_list g.Cdfg.nodes
    |> List.filter_map (fun (n : Cdfg.node) ->
           if n.Cdfg.cls = Cdfg.Store then
             Some { store_node = n.Cdfg.id; array = n.Cdfg.array }
           else None)
  in
  (* per node: an OR gate + a taint FF; per check: a comparator + trap reg *)
  let n_ops =
    Array.fold_left
      (fun acc (n : Cdfg.node) ->
        match n.Cdfg.cls with Cdfg.Const | Cdfg.Nop -> acc | _ -> acc + 1)
      0 g.Cdfg.nodes
  in
  let shadow_area =
    { Estimate.luts = (2 * n_ops) + (6 * List.length checks);
      ffs = n_ops + (2 * List.length checks);
      dsps = 0; brams = 0 }
  in
  { checks; shadow_area }
