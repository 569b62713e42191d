(* Core IR structure: SSA values, operations, blocks, regions, modules.

   The representation is immutable: rewrites build new operation lists and
   substitute values by identity.  Value identities are allocated from a
   context so that freshly built fragments never collide. *)

type value = { vid : int; vty : Types.t }

type op = {
  name : string;  (* fully qualified, e.g. "arith.addf" *)
  operands : value list;
  results : value list;
  attrs : (string * Attr.t) list;
  regions : region list;
  loc : Loc.t;
}

and block = { bargs : value list; body : op list }
and region = block list

type ctx = { mutable next_id : int }

let ctx () = { next_id = 0 }

let fresh_value ctx ty =
  let vid = ctx.next_id in
  ctx.next_id <- ctx.next_id + 1;
  { vid; vty = ty }

let fresh_values ctx tys = List.map (fresh_value ctx) tys

(* Ensure the context allocates above every id present in [ops]; used after
   parsing, which assigns ids itself. *)
let bump_ctx ctx ops =
  let rec max_op m op =
    let m =
      List.fold_left (fun m v -> max m v.vid) m (op.operands @ op.results)
    in
    List.fold_left max_region m op.regions
  and max_region m blocks =
    List.fold_left
      (fun m b ->
        let m = List.fold_left (fun m v -> max m v.vid) m b.bargs in
        List.fold_left max_op m b.body)
      m blocks
  in
  let m = List.fold_left max_op (-1) ops in
  if m >= ctx.next_id then ctx.next_id <- m + 1

let value_equal a b = a.vid = b.vid

let op ?(attrs = []) ?(regions = []) ctx name operands result_types =
  { name; operands; results = fresh_values ctx result_types; attrs; regions;
    loc = Loc.unknown }

let result ?(n = 0) o = List.nth o.results n
let attr key o = Attr.find key o.attrs
let attr_str key o = Attr.find_str key o.attrs
let attr_sym key o = Attr.find_sym key o.attrs
let has_attr key o = Option.is_some (attr key o)

let block ?(args = []) body = { bargs = args; body }
let simple_region body = [ block body ]

(* Structural traversal *)

let rec iter_ops f (ops : op list) =
  List.iter
    (fun o ->
      f o;
      List.iter (fun r -> List.iter (fun b -> iter_ops f b.body) r) o.regions)
    ops

let rec fold_ops f acc ops =
  List.fold_left
    (fun acc o ->
      let acc = f acc o in
      List.fold_left
        (fun acc r -> List.fold_left (fun acc b -> fold_ops f acc b.body) acc r)
        acc o.regions)
    acc ops

let count_ops ops = fold_ops (fun n _ -> n + 1) 0 ops

(* Substitute values through an op list (including nested regions). *)
let rec substitute (subst : (int * value) list) ops =
  if subst = [] then ops
  else
    List.map
      (fun o ->
        {
          o with
          operands =
            List.map
              (fun v ->
                match List.assoc_opt v.vid subst with
                | Some v' -> v'
                | None -> v)
              o.operands;
          regions =
            List.map
              (List.map (fun b -> { b with body = substitute subst b.body }))
              o.regions;
        })
      ops

(* Clone ops with fresh result values, applying [subst] (vid -> value) to
   operands.  Returns the clones plus the extended substitution mapping old
   result ids to the fresh values. *)
let rec clone_ops ctx (subst : (int * value) list) (ops : op list) :
    op list * (int * value) list =
  List.fold_left
    (fun (acc, subst) (o : op) ->
      let operands =
        List.map
          (fun (v : value) ->
            match List.assoc_opt v.vid subst with Some v' -> v' | None -> v)
          o.operands
      in
      let results = List.map (fun (r : value) -> fresh_value ctx r.vty) o.results in
      let subst =
        List.fold_left2
          (fun s (r : value) (r' : value) -> (r.vid, r') :: s)
          subst o.results results
      in
      let regions, subst =
        List.fold_left
          (fun (rs, subst) region ->
            let blocks, subst =
              List.fold_left
                (fun (bs, subst) (b : block) ->
                  let bargs =
                    List.map (fun (v : value) -> fresh_value ctx v.vty) b.bargs
                  in
                  let subst =
                    List.fold_left2
                      (fun s (v : value) (v' : value) -> (v.vid, v') :: s)
                      subst b.bargs bargs
                  in
                  let body, subst = clone_ops ctx subst b.body in
                  (bs @ [ { bargs; body } ], subst))
                ([], subst) region
            in
            (rs @ [ blocks ], subst))
          ([], subst) o.regions
      in
      (acc @ [ { o with operands; results; regions } ], subst))
    ([], subst) ops

(* A top-level module: named functions plus module-level attributes. *)

type func = {
  fname : string;
  fargs : value list;
  fret_types : Types.t list;
  fbody : op list;
  fattrs : (string * Attr.t) list;
}

type modul = { mname : string; funcs : func list; mattrs : (string * Attr.t) list }

let func ?(attrs = []) name args ret_types body =
  { fname = name; fargs = args; fret_types = ret_types; fbody = body; fattrs = attrs }

let modul name funcs = { mname = name; funcs; mattrs = [] }

let find_func m name = List.find_opt (fun f -> String.equal f.fname name) m.funcs

let module_op_count m =
  List.fold_left (fun n f -> n + count_ops f.fbody) 0 m.funcs
