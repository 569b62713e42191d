(* Standard transformations: constant folding, algebraic canonicalization,
   common-subexpression elimination and dead-code elimination. *)

open Ir

(* ---- constant folding ---------------------------------------------------- *)

let const_of ~defs (v : value) =
  match defs v.vid with
  | Some o -> Dialect_arith.const_value o
  | None -> None

let fold_constants =
  Rewrite.pattern "fold-constants" ~benefit:2 (fun ctx ~defs o ->
      match o.operands with
      | [ a; b ] -> (
          match (const_of ~defs a, const_of ~defs b) with
          | Some (Attr.Int x), Some (Attr.Int y) -> (
              match Dialect_arith.int_fold o.name x y with
              | Some r ->
                  let c = Dialect_arith.const_i ~ty:a.vty ctx r in
                  Rewrite.fold_to o (Ir.result c) [ c ]
              | None -> (
                  match o.name with
                  | "arith.cmpi" ->
                      Option.bind (Ir.attr_str "predicate" o) (fun p ->
                          Option.bind (Dialect_arith.cmp_pred_of_name p)
                            (fun pred ->
                              let r = Dialect_arith.cmp_fold pred (compare x y) in
                              let c =
                                Dialect_arith.const_i ~ty:Types.i1 ctx
                                  (if r then 1 else 0)
                              in
                              Rewrite.fold_to o (Ir.result c) [ c ]))
                  | _ -> None))
          | Some (Attr.Float x), Some (Attr.Float y) -> (
              match Dialect_arith.float_fold o.name x y with
              | Some r ->
                  let c = Dialect_arith.const_f ~ty:a.vty ctx r in
                  Rewrite.fold_to o (Ir.result c) [ c ]
              | None -> (
                  match o.name with
                  | "arith.cmpf" ->
                      Option.bind (Ir.attr_str "predicate" o) (fun p ->
                          Option.bind (Dialect_arith.cmp_pred_of_name p)
                            (fun pred ->
                              let r = Dialect_arith.cmp_fold pred (compare x y) in
                              let c =
                                Dialect_arith.const_i ~ty:Types.i1 ctx
                                  (if r then 1 else 0)
                              in
                              Rewrite.fold_to o (Ir.result c) [ c ]))
                  | _ -> None))
          | _ -> None)
      | _ -> None)

(* ---- algebraic identities ------------------------------------------------ *)

let is_const_val ~defs v k =
  match const_of ~defs v with
  | Some (Attr.Int i) -> float_of_int i = k
  | Some (Attr.Float f) -> f = k
  | _ -> false

let algebraic_identities =
  Rewrite.pattern "algebraic-identities" (fun _ctx ~defs o ->
      match (o.name, o.operands) with
      | ("arith.addi" | "arith.addf" | "arith.subi" | "arith.subf"), [ a; b ]
        when is_const_val ~defs b 0.0 ->
          Rewrite.fold_to o a []
      | ("arith.addi" | "arith.addf"), [ a; b ] when is_const_val ~defs a 0.0 ->
          Rewrite.fold_to o b []
      | ("arith.muli" | "arith.mulf" | "arith.divi" | "arith.divf"), [ a; b ]
        when is_const_val ~defs b 1.0 ->
          Rewrite.fold_to o a []
      | ("arith.muli" | "arith.mulf"), [ a; b ] when is_const_val ~defs a 1.0 ->
          Rewrite.fold_to o b []
      | "arith.select", [ c; a; b ] -> (
          match const_of ~defs c with
          | Some (Attr.Int 1) -> Rewrite.fold_to o a []
          | Some (Attr.Int 0) -> Rewrite.fold_to o b []
          | _ -> None)
      | _ -> None)

(* Double transpose cancels; encrypt-then-decrypt with the same key folds. *)
let involutions =
  Rewrite.pattern "involutions" (fun _ctx ~defs o ->
      match (o.name, o.operands) with
      | "tensor.transpose", [ a ] -> (
          match defs a.vid with
          | Some inner
            when String.equal inner.name "tensor.transpose" ->
              Rewrite.fold_to o (List.hd inner.operands) []
          | _ -> None)
      | "sec.decrypt", [ c; k ] -> (
          match defs c.vid with
          | Some inner
            when String.equal inner.name "sec.encrypt"
                 && value_equal (List.nth inner.operands 1) k
                 && Ir.attr "algo" inner = Ir.attr "algo" o ->
              Rewrite.fold_to o (List.hd inner.operands) []
          | _ -> None)
      | _ -> None)

let canonicalize_patterns = [ fold_constants; algebraic_identities; involutions ]

let canonicalize =
  Pass.make "canonicalize" (fun ctx m ->
      Rewrite.apply_to_module ctx canonicalize_patterns m)

(* ---- CSE ------------------------------------------------------------------ *)

(* Key identifying a pure op up to its results. *)
let op_key (o : op) =
  (o.name, List.map (fun v -> v.vid) o.operands, o.attrs)

let cse_ops ops =
  let rec go seen subst acc = function
    | [] -> List.rev acc
    | (o : op) :: rest ->
        let o =
          {
            o with
            operands =
              List.map
                (fun (v : value) ->
                  match List.assoc_opt v.vid subst with
                  | Some v' -> v'
                  | None -> v)
                o.operands;
            regions =
              List.map
                (List.map (fun b ->
                     { b with body = Ir.substitute subst b.body }))
                o.regions;
          }
        in
        if Dialect.is_pure o && o.regions = [] then begin
          let key = op_key o in
          match List.assoc_opt key seen with
          | Some (prior : op) ->
              let subst =
                List.fold_left2
                  (fun s (r : value) (pr : value) -> (r.vid, pr) :: s)
                  subst o.results prior.results
              in
              go seen subst acc rest
          | None -> go ((key, o) :: seen) subst (o :: acc) rest
        end
        else
          let o =
            { o with
              regions =
                List.map
                  (List.map (fun (b : block) ->
                       { b with body = go [] [] [] b.body }))
                  o.regions }
          in
          go seen subst (o :: acc) rest
  in
  go [] [] [] ops

let cse =
  Pass.make "cse" (fun _ctx m ->
      { m with funcs = List.map (fun f -> { f with fbody = cse_ops f.fbody }) m.funcs })

(* ---- DCE ------------------------------------------------------------------ *)

let deletable (o : op) = Dialect.is_pure o && o.regions = [] && o.results <> []

(* [dead.(vid - lo)]: value [vid] is the result of a dead op. *)
let condemned (lo, dead) (o : op) =
  deletable o && List.for_all (fun (r : value) -> dead.(r.vid - lo)) o.results

(* One dead-op rule for the whole function: a pure region-free op is dead
   when none of its results is used by a live op, anywhere, nested
   regions included, so a chain that only feeds dead ops dies with them.
   One walk counts the uses of each value; a worklist then retires the
   deletable ops whose results have no uses, and each retired op drops
   one use of each of its operands.  Values are indexed by id, offset by
   the lowest id the function mentions. *)
let dead_results ops =
  let lo = ref max_int and hi = ref (-1) in
  let see (v : value) =
    if v.vid < !lo then lo := v.vid;
    if v.vid > !hi then hi := v.vid
  in
  iter_ops
    (fun o ->
      List.iter see o.operands;
      List.iter see o.results)
    ops;
  let lo = !lo in
  let n = max 0 (!hi - lo + 1) in
  let uses = Array.make n 0 and def = Array.make n None and dead = Array.make n false in
  iter_ops
    (fun (o : op) ->
      List.iter (fun (v : value) -> uses.(v.vid - lo) <- uses.(v.vid - lo) + 1) o.operands;
      if deletable o then List.iter (fun (r : value) -> def.(r.vid - lo) <- Some o) o.results)
    ops;
  let work = ref [] in
  let retire (o : op) =
    if
      (not dead.((List.hd o.results).vid - lo))
      && List.for_all (fun (r : value) -> uses.(r.vid - lo) = 0) o.results
    then (
      List.iter (fun (r : value) -> dead.(r.vid - lo) <- true) o.results;
      work := o :: !work)
  in
  iter_ops (fun o -> if deletable o then retire o) ops;
  let rec drain () =
    match !work with
    | [] -> (lo, dead)
    | o :: rest ->
        work := rest;
        List.iter
          (fun (v : value) ->
            let i = v.vid - lo in
            uses.(i) <- uses.(i) - 1;
            if uses.(i) = 0 then Option.iter retire def.(i))
          o.operands;
        drain ()
  in
  drain ()

let dead_ops (f : func) =
  let dead = dead_results f.fbody in
  List.rev
    (fold_ops (fun acc o -> if condemned dead o then o :: acc else acc) [] f.fbody)

let dce_ops ops =
  let dead = dead_results ops in
  let rec strip ops =
    List.filter_map
      (fun (o : op) ->
        if condemned dead o then None
        else if o.regions = [] then Some o
        else
          Some
            { o with
              regions =
                List.map
                  (List.map (fun (b : block) -> { b with body = strip b.body }))
                  o.regions })
      ops
  in
  strip ops

let dce =
  Pass.make "dce" (fun _ctx m ->
      { m with funcs = List.map (fun f -> { f with fbody = dce_ops f.fbody }) m.funcs })

let standard_pipeline = [ canonicalize; cse; dce ]
