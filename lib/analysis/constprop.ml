(* Sparse conditional constant propagation over the structured IR.

   State is a map from value id to a flat constant lattice.  The analysis
   is "conditional": when the condition of an [scf.if] is a known constant
   only the taken region is walked (via the engine's [branch_filter]) and
   only its yield contributes to the op results; [scf.for] iteration
   arguments are joined with the facts of the body yield, so loop-carried
   constants survive and varying ones go to Top within two engine
   iterations.

   Folding uses the [Dialect_arith] folds [Interp] evaluates with
   (division by zero stays Top, [shri] is a logical shift), and the QCheck
   agreement property in test_analysis.ml checks the two agree. *)

open Everest_ir

type const = CInt of int | CFloat of float

let const_equal a b =
  match (a, b) with
  | CInt x, CInt y -> x = y
  | CFloat x, CFloat y -> Float.equal x y
  | _ -> false

let pp_const ppf = function
  | CInt i -> Fmt.int ppf i
  | CFloat f -> Fmt.float ppf f

module FlatC = Lattice.Flat (struct
  type t = const

  let equal = const_equal
  let pp = pp_const
end)

(* Engine state is a version stamp over one shared mutable fact table:
   the table only ever moves up the flat lattice (SSA values have a
   single defining op, and [record] joins), so "no stamp change across a
   body re-walk" is exactly the loop-fixpoint criterion.  This keeps a
   loop iteration O(body) instead of O(function) — joining whole
   persistent maps per loop made large functions quadratic. *)
module Stamp = struct
  type t = int

  let bottom = 0
  let equal = Int.equal
  let join = Int.max
  let pp = Fmt.int
end

module E = Dataflow.Make (Stamp)

let is_int_binop n = List.mem n Dialect_arith.int_binops
let is_float_binop n = List.mem n Dialect_arith.float_binops

(* Result of the analysis: final fact per value id (join over every
   binding the walk produced, so loop re-walks stay monotone). *)
type result = { facts : (int, FlatC.t) Hashtbl.t }

(* Public view of the internal flat lattice. *)
type fact = Unknown | Known of const | Varying

let to_fact = function
  | FlatC.Bot -> Unknown
  | FlatC.Const c -> Known c
  | FlatC.Top -> Varying

let fact_vid (r : result) vid =
  to_fact (Option.value ~default:FlatC.Bot (Hashtbl.find_opt r.facts vid))

let fact (r : result) (v : Ir.value) = fact_vid r v.Ir.vid

(* Terminator operands of each region of [o] ("scf.yield" by convention);
   [None] for regions without one. *)
let region_yields (o : Ir.op) : Ir.value list option list =
  List.map
    (fun (r : Ir.region) ->
      match List.rev r with
      | (b : Ir.block) :: _ -> (
          match List.rev b.Ir.body with
          | (t : Ir.op) :: _ when String.equal t.Ir.name "scf.yield" ->
              Some t.Ir.operands
          | _ -> None)
      | [] -> None)
    o.Ir.regions

(* Feasible regions of a branch op given the current facts. *)
let feasible_of lookup (o : Ir.op) =
  match (o.Ir.name, o.Ir.operands) with
  | "scf.if", (cond : Ir.value) :: _ -> (
      let n = List.length o.Ir.regions in
      let all = List.init n Fun.id in
      match lookup cond.Ir.vid with
      | FlatC.Const (CInt 0) -> if n > 1 then [ 1 ] else []
      | FlatC.Const (CInt _) -> [ 0 ]
      | _ -> all)
  | _ -> List.init (List.length o.Ir.regions) Fun.id

let analyze (f : Ir.func) : result =
  let facts = Hashtbl.create 64 in
  let stamp = ref 0 in
  let lookup vid =
    Option.value ~default:FlatC.Bot (Hashtbl.find_opt facts vid)
  in
  let record vid fact =
    let old = lookup vid in
    let joined = FlatC.join old fact in
    if not (FlatC.equal joined old) then begin
      Hashtbl.replace facts vid joined;
      incr stamp
    end
  in
  let set s (v : Ir.value) fact =
    record v.Ir.vid fact;
    Stamp.join s !stamp
  in
  let set_all s vs fact = List.fold_left (fun s v -> set s v fact) s vs in
  let get _s (v : Ir.value) = lookup v.Ir.vid in
  let feasible _s o = feasible_of lookup o in
  let binary fold wrap s (o : Ir.op) =
    match o.Ir.operands with
    | [ a; b ] -> (
        match (get s a, get s b) with
        | FlatC.Const x, FlatC.Const y -> (
            match fold x y with
            | Some r -> set s (Ir.result o) (FlatC.const (wrap r))
            | None -> set s (Ir.result o) FlatC.top)
        | FlatC.Bot, _ | _, FlatC.Bot -> set s (Ir.result o) FlatC.Bot
        | _ -> set s (Ir.result o) FlatC.top)
    | _ -> set_all s o.Ir.results FlatC.top
  in
  let transfer s (o : Ir.op) =
    match o.Ir.name with
    | "arith.constant" -> (
        match Ir.attr "value" o with
        | Some (Attr.Int i) -> set s (Ir.result o) (FlatC.const (CInt i))
        | Some (Attr.Float v) -> set s (Ir.result o) (FlatC.const (CFloat v))
        | Some (Attr.Bool b) ->
            set s (Ir.result o) (FlatC.const (CInt (if b then 1 else 0)))
        | _ -> set s (Ir.result o) FlatC.top)
    | n when is_int_binop n ->
        binary
          (fun x y ->
            match (x, y) with
            | CInt a, CInt b ->
                Option.map (fun r -> CInt r) (Dialect_arith.int_fold n a b)
            | _ -> None)
          Fun.id s o
    | n when is_float_binop n ->
        binary
          (fun x y ->
            match (x, y) with
            | CFloat a, CFloat b ->
                Option.map (fun r -> CFloat r) (Dialect_arith.float_fold n a b)
            | _ -> None)
          Fun.id s o
    | "arith.negf" | "arith.sqrtf" | "arith.expf" -> (
        match o.Ir.operands with
        | [ a ] -> (
            match get s a with
            | FlatC.Const (CFloat x) -> (
                match Dialect_arith.float_unary_fold o.Ir.name x with
                | Some r -> set s (Ir.result o) (FlatC.const (CFloat r))
                | None -> set s (Ir.result o) FlatC.top)
            | FlatC.Bot -> set s (Ir.result o) FlatC.Bot
            | _ -> set s (Ir.result o) FlatC.top)
        | _ -> set_all s o.Ir.results FlatC.top)
    | "arith.cmpi" | "arith.cmpf" -> (
        let pred =
          Option.bind (Ir.attr_str "predicate" o) Dialect_arith.cmp_pred_of_name
        in
        match (pred, o.Ir.operands) with
        | Some pred, [ a; b ] -> (
            match (get s a, get s b) with
            | FlatC.Const x, FlatC.Const y ->
                let c =
                  match (x, y) with
                  | CInt u, CInt v -> Some (compare u v)
                  | CFloat u, CFloat v -> Some (compare u v)
                  | _ -> None
                in
                (match c with
                | Some c ->
                    let holds = Dialect_arith.cmp_fold pred c in
                    set s (Ir.result o)
                      (FlatC.const (CInt (if holds then 1 else 0)))
                | None -> set s (Ir.result o) FlatC.top)
            | _ -> set s (Ir.result o) FlatC.top)
        | _ -> set_all s o.Ir.results FlatC.top)
    | "arith.select" -> (
        match o.Ir.operands with
        | [ c; a; b ] -> (
            match get s c with
            | FlatC.Const (CInt 0) -> set s (Ir.result o) (get s b)
            | FlatC.Const (CInt _) -> set s (Ir.result o) (get s a)
            | _ -> set s (Ir.result o) (FlatC.join (get s a) (get s b)))
        | _ -> set_all s o.Ir.results FlatC.top)
    | "scf.if" | "scf.for" -> (
        (* results come from the yields of the feasible regions *)
        let taken = feasible s o in
        let yields =
          List.concat
            (List.mapi
               (fun i y -> if List.mem i taken then [ y ] else [])
               (region_yields o))
        in
        let n = List.length o.Ir.results in
        let joined =
          List.fold_left
            (fun acc y ->
              match y with
              | Some vs when List.length vs = n ->
                  List.map2 (fun a v -> FlatC.join a (get s v)) acc vs
              | _ -> List.map (fun _ -> FlatC.top) acc)
            (List.map (fun _ -> FlatC.Bot) o.Ir.results)
            yields
        in
        match o.Ir.results with
        | [] -> s
        | rs -> List.fold_left2 set s rs joined)
    | _ -> set_all s o.Ir.results FlatC.top
  in
  let enter_block s (o : Ir.op) (b : Ir.block) =
    match (o.Ir.name, b.Ir.bargs) with
    | "scf.for", iv :: iters ->
        (* operands: lo :: hi :: step :: inits; the body yield feeds the
           iter args on later iterations (its facts accumulate in s). *)
        let inits =
          match o.Ir.operands with _ :: _ :: _ :: inits -> inits | _ -> []
        in
        let yield =
          match region_yields o with [ Some vs ] -> Some vs | _ -> None
        in
        let s = set s iv FlatC.top in
        List.fold_left
          (fun s (i, iter) ->
            let from_init =
              match List.nth_opt inits i with
              | Some v -> get s v
              | None -> FlatC.top
            in
            let from_yield =
              match yield with
              | Some vs -> (
                  match List.nth_opt vs i with
                  | Some v -> get s v
                  | None -> FlatC.top)
              | None -> FlatC.top
            in
            set s iter (FlatC.join from_init from_yield))
          s
          (List.mapi (fun i v -> (i, v)) iters)
    | _ ->
        (* unknown block arguments are Top *)
        List.fold_left (fun s v -> set s v FlatC.top) s b.Ir.bargs
  in
  let branch_filter s o =
    match o.Ir.name with "scf.if" -> Some (feasible s o) | _ -> None
  in
  let hooks = E.hooks ~enter_block ~branch_filter transfer in
  List.iter (fun (v : Ir.value) -> record v.Ir.vid FlatC.top) f.Ir.fargs;
  ignore (E.forward hooks !stamp f.Ir.fbody);
  { facts }

(* Pure arith ops (other than arith.constant itself) whose single result
   is a known constant: candidates for folding. *)
let foldable (f : Ir.func) : (Ir.op * const) list =
  let r = analyze f in
  let out = ref [] in
  Ir.iter_ops
    (fun (o : Ir.op) ->
      if
        String.length o.Ir.name > 6
        && String.sub o.Ir.name 0 6 = "arith."
        && (not (String.equal o.Ir.name "arith.constant"))
        && Dialect.is_pure o
      then
        match o.Ir.results with
        | [ res ] -> (
            match fact_vid r res.Ir.vid with
            | Known c -> out := (o, c) :: !out
            | _ -> ())
        | _ -> ())
    f.Ir.fbody;
  List.rev !out
