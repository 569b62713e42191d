(* Workflow/dataflow eDSL (the HyperLoom-facing layer).

   An application is an end-to-end pipeline of tasks of various granularity
   (paper §III-A): sources feed kernels, kernels feed sinks.  Kernels are
   either tensor expressions written in the DSL, opaque external nodes
   (C/C++ tasks with cost estimates), or AI model invocations.  Nodes are
   annotated with the data characteristics that drive compilation. *)

type kernel =
  | Tensor_kernel of Tensor_expr.expr
  | External of { lang : string; est_flops : int; est_bytes : int }
  | Ai_model of { layers : int list; activation : string }

type node = {
  nid : int;
  nname : string;
  kernel : kernel option;  (* None for pure sources *)
  deps : node list;
  annots : Annot.t list;
  out_bytes : int;
}

type graph = {
  gname : string;
  mutable rev_nodes : node list;
  mutable next_id : int;
  mutable sinks : (string * node) list;
}

let create gname = { gname; rev_nodes = []; next_id = 0; sinks = [] }

let add g node =
  g.rev_nodes <- node :: g.rev_nodes;
  g.next_id <- g.next_id + 1;
  node

let source ?(annots = []) g name ~bytes =
  add g
    { nid = g.next_id; nname = name; kernel = None; deps = []; annots;
      out_bytes = bytes }

let default_out_bytes kernel deps =
  match kernel with
  | Tensor_kernel e -> 8 * Tensor_expr.num_elems (Tensor_expr.shape e)
  | External { est_bytes; _ } -> est_bytes
  | Ai_model { layers; _ } -> (
      match List.rev layers with [] -> 8 | last :: _ -> 8 * last * 1)
  |> fun b -> if b = 0 then List.fold_left (fun a n -> a + n.out_bytes) 8 deps else b

let task ?(annots = []) g name kernel ~deps =
  List.iter
    (fun d ->
      if d.nid >= g.next_id then invalid_arg "task: dependency from another graph")
    deps;
  add g
    { nid = g.next_id; nname = name; kernel = Some kernel; deps; annots;
      out_bytes = default_out_bytes kernel deps }

let sink g name node = g.sinks <- (name, node) :: g.sinks

(* Nodes in topological (construction) order. *)
let nodes g = List.rev g.rev_nodes
let sinks g = List.rev g.sinks

let kernel_flops = function
  | None -> 0
  | Some (Tensor_kernel e) -> Tensor_expr.flops e
  | Some (External { est_flops; _ }) -> est_flops
  | Some (Ai_model { layers; _ }) ->
      let rec pairs = function
        | a :: (b :: _ as rest) -> (2 * a * b) + pairs rest
        | _ -> 0
      in
      pairs layers

(* Validation: names unique, deps precede, sinks registered on graph nodes. *)
let validate g =
  let errs = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n.nname then
        errs := Printf.sprintf "duplicate node name %S" n.nname :: !errs;
      Hashtbl.replace seen n.nname ();
      List.iter
        (fun d ->
          if d.nid >= n.nid then
            errs := Printf.sprintf "node %S: dependency order violated" n.nname :: !errs)
        n.deps)
    (nodes g);
  List.iter
    (fun (_, n) ->
      if not (List.exists (fun m -> m.nid = n.nid) (nodes g)) then
        errs := Printf.sprintf "sink references foreign node %S" n.nname :: !errs)
    g.sinks;
  match !errs with [] -> Ok () | es -> Error (List.rev es)
