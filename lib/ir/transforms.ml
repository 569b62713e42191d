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

module IntSet = Set.Make (Int)

let rec used_in ops =
  List.fold_left
    (fun s (o : op) ->
      let s =
        List.fold_left (fun s (v : value) -> IntSet.add v.vid s) s o.operands
      in
      List.fold_left
        (fun s r -> List.fold_left (fun s (b : block) -> IntSet.union s (used_in b.body)) s r)
        s o.regions)
    IntSet.empty ops

let rec dce_ops live ops =
  (* A pure region-free op whose results are all dead is removed.  Iterate
     because removal can kill producers. *)
  let one_round ops =
    let used = IntSet.union live (used_in ops) in
    List.filter_map
      (fun (o : op) ->
        let o =
          if o.regions = [] then o
          else
            { o with
              regions =
                List.map
                  (List.map (fun (b : block) ->
                       { b with body = dce_ops used b.body }))
                  o.regions }
        in
        if
          Dialect.is_pure o && o.regions = []
          && o.results <> []
          && List.for_all (fun (r : value) -> not (IntSet.mem r.vid used)) o.results
        then None
        else Some o)
      ops
  in
  let rec fix ops =
    let ops' = one_round ops in
    if List.length ops' = List.length ops then ops' else fix ops'
  in
  fix ops

let dce =
  Pass.make "dce" (fun _ctx m ->
      { m with
        funcs = List.map (fun f -> { f with fbody = dce_ops IntSet.empty f.fbody }) m.funcs })

let standard_pipeline = [ canonicalize; cse; dce ]
