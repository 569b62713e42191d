(* Greedy pattern-rewrite driver.

   A pattern inspects one op (with access to the defining ops of its
   operands) and either declines or produces replacement ops plus a value
   substitution.  The driver applies patterns to a fixpoint, innermost
   regions first, mirroring MLIR's canonicalization driver. *)

type produced = {
  new_ops : Ir.op list;  (* spliced in place of the matched op *)
  subst : (Ir.value * Ir.value) list;  (* old result -> new value *)
}

type pattern = {
  pname : string;
  benefit : int;
  matcher : Ir.ctx -> defs:(int -> Ir.op option) -> Ir.op -> produced option;
}

let pattern ?(benefit = 1) pname matcher = { pname; benefit; matcher }

(* One value replaces the single result. *)
let fold_to (op : Ir.op) v new_ops =
  match op.results with
  | [ r ] -> Some { new_ops; subst = [ (r, v) ] }
  | _ -> None

type stats = { mutable applications : (string * int) list }

let bump stats name =
  let n = try List.assoc name stats.applications with Not_found -> 0 in
  stats.applications <- (name, n + 1) :: List.remove_assoc name stats.applications

(* Apply patterns over an op list until fixpoint, at most 20 sweeps. *)
let max_iterations = 20

let apply_patterns ctx (patterns : pattern list) ops =
  let patterns =
    List.sort (fun a b -> compare b.benefit a.benefit) patterns
  in
  let stats = { applications = [] } in
  let rec rewrite_list defs ops =
    (* defs: map vid -> defining op for operand inspection *)
    let changed = ref false in
    let rec go defs acc = function
      | [] -> List.rev acc
      | (o : Ir.op) :: rest ->
          (* innermost first: rewrite nested regions *)
          let o =
            if o.regions = [] then o
            else
              let regions' =
                List.map
                  (List.map (fun (b : Ir.block) ->
                       { b with Ir.body = rewrite_list defs b.body }))
                  o.regions
              in
              if regions' <> o.regions then (changed := true;
                                             { o with regions = regions' })
              else o
          in
          let lookup_def vid = List.assoc_opt vid defs in
          let rec try_pats = function
            | [] -> None
            | p :: ps -> (
                match p.matcher ctx ~defs:lookup_def o with
                | Some r -> bump stats p.pname; Some r
                | None -> try_pats ps)
          in
          (match try_pats patterns with
          | Some { new_ops; subst } ->
              changed := true;
              let subst' = List.map (fun ((a : Ir.value), b) -> (a.vid, b)) subst in
              let defs =
                List.fold_left
                  (fun defs (op : Ir.op) ->
                    List.fold_left
                      (fun defs (r : Ir.value) -> (r.vid, op) :: defs)
                      defs op.results)
                  defs new_ops
              in
              let rest = Ir.substitute subst' rest in
              let acc =
                List.rev_append new_ops acc
              in
              go defs acc rest
          | None ->
              let defs =
                List.fold_left
                  (fun defs (r : Ir.value) -> (r.vid, o) :: defs)
                  defs o.results
              in
              go defs (o :: acc) rest)
    in
    let result = go defs [] ops in
    if !changed then result else ops
  in
  let rec fix i ops =
    if i >= max_iterations then ops
    else
      let ops' = rewrite_list [] ops in
      if ops' == ops || ops' = ops then ops else fix (i + 1) ops'
  in
  (fix 0 ops, stats)

let apply_to_func ctx patterns (f : Ir.func) =
  let body, stats = apply_patterns ctx patterns f.Ir.fbody in
  ({ f with Ir.fbody = body }, stats)

let apply_to_module ctx patterns (m : Ir.modul) =
  { m with Ir.funcs = List.map (fun f -> fst (apply_to_func ctx patterns f)) m.Ir.funcs }
