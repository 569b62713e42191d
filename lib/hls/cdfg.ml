(* Data-flow graph extraction for high-level synthesis.

   The HLS flow consumes straight-line scalar code (loop bodies after the
   compiler has lowered tensor ops to loops).  Each IR operation becomes a
   DFG node with an operation class that determines its latency and the
   functional unit that can execute it.  Loads and stores carry the array
   (memref) they touch plus an affine view of their index expression, which
   the memory partitioner needs. *)

type opclass =
  | Add  (* integer/float add, sub, compare *)
  | Mul
  | Div  (* division, sqrt, exp: long-latency, unpipelined *)
  | Logic  (* and/or/xor/shift/select *)
  | Load
  | Store
  | Const
  | Nop  (* casts, wires *)

let opclass_name = function
  | Add -> "add" | Mul -> "mul" | Div -> "div" | Logic -> "logic"
  | Load -> "load" | Store -> "store" | Const -> "const" | Nop -> "nop"

(* Affine index description [coeff * iv + offset] for bank analysis;
   [Unknown] marks data-dependent addressing (paper: irregular accesses). *)
type index = Affine of { coeff : int; offset : int } | Unknown

type node = {
  id : int;
  cls : opclass;
  op_name : string;  (* originating IR op, for diagnostics *)
  preds : int list;  (* data dependencies: node ids *)
  array : string option;  (* for Load/Store: array identifier *)
  index : index;
}

type t = {
  nodes : node array;
  arrays : (string * int) list;  (* array id -> element count *)
}

let size g = Array.length g.nodes
let node g i = g.nodes.(i)

let count_class g cls =
  Array.fold_left (fun acc n -> if n.cls = cls then acc + 1 else acc) 0 g.nodes

(* ---- construction ----------------------------------------------------------- *)

type builder = {
  mutable rev : node list;
  mutable next : int;
  mutable arrs : (string * int) list;
}

let builder () = { rev = []; next = 0; arrs = [] }

let add_node b ?array ?(index = Unknown) cls op_name preds =
  let n = { id = b.next; cls; op_name; preds; array; index } in
  b.rev <- n :: b.rev;
  b.next <- b.next + 1;
  n.id

let declare_array b name elems =
  if not (List.mem_assoc name b.arrs) then b.arrs <- (name, elems) :: b.arrs

let finish b = { nodes = Array.of_list (List.rev b.rev); arrays = List.rev b.arrs }

(* ---- from IR ----------------------------------------------------------------- *)

exception Unsupported of string

let classify_ir_op (name : string) : opclass =
  match name with
  | "arith.addi" | "arith.addf" | "arith.subi" | "arith.subf" | "arith.maxf"
  | "arith.minf" | "arith.cmpi" | "arith.cmpf" | "arith.negf" ->
      Add
  | "arith.muli" | "arith.mulf" -> Mul
  | "arith.divi" | "arith.divf" | "arith.remi" | "arith.sqrtf" | "arith.expf" ->
      Div
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.shli" | "arith.shri"
  | "arith.select" ->
      Logic
  | "arith.constant" -> Const
  | "arith.cast" -> Nop
  | "memref.load" -> Load
  | "memref.store" -> Store
  | n -> raise (Unsupported n)

(* Build a DFG from straight-line IR ops.  [iv] optionally names the loop
   induction variable so that load/store indices become affine views.
   Unrolling constant-bound inner loops is the compiler's job. *)
let of_ir_ops ?iv (ops : Everest_ir.Ir.op list) : t =
  let open Everest_ir in
  let b = builder () in
  (* IR value id -> producing DFG node *)
  let defs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* IR value id -> known constant (for affine index recovery) *)
  let consts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* IR value id -> affine-in-iv view *)
  let affine : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  (match iv with Some (v : Ir.value) -> Hashtbl.replace affine v.Ir.vid (1, 0) | None -> ());
  let array_name (v : Ir.value) = Printf.sprintf "arr%d" v.Ir.vid in
  let preds_of (operands : Ir.value list) =
    List.filter_map (fun (v : Ir.value) -> Hashtbl.find_opt defs v.Ir.vid) operands
  in
  let index_of (v : Ir.value) =
    match Hashtbl.find_opt affine v.Ir.vid with
    | Some (c, o) -> Affine { coeff = c; offset = o }
    | None -> (
        match Hashtbl.find_opt consts v.Ir.vid with
        | Some k -> Affine { coeff = 0; offset = k }
        | None -> Unknown)
  in
  List.iter
    (fun (o : Ir.op) ->
      match o.Ir.name with
      | "memref.load" ->
          let arr = List.hd o.operands in
          let idx = match o.operands with _ :: i :: _ -> index_of i | _ -> Unknown in
          (match arr.Ir.vty with
          | Types.Memref _ as t ->
              declare_array b (array_name arr)
                (Option.value ~default:1024 (Types.num_elements t))
          | _ -> ());
          let id =
            add_node b ~array:(array_name arr) ~index:idx Load o.Ir.name
              (preds_of (List.tl o.operands))
          in
          List.iter (fun (r : Ir.value) -> Hashtbl.replace defs r.Ir.vid id) o.results
      | "memref.store" ->
          let arr = List.nth o.operands 1 in
          let idx =
            match o.operands with _ :: _ :: i :: _ -> index_of i | _ -> Unknown
          in
          (match arr.Ir.vty with
          | Types.Memref _ as t ->
              declare_array b (array_name arr)
                (Option.value ~default:1024 (Types.num_elements t))
          | _ -> ());
          ignore
            (add_node b ~array:(array_name arr) ~index:idx Store o.Ir.name
               (preds_of [ List.hd o.operands; List.nth o.operands 2 ]))
      | "arith.constant" ->
          let id = add_node b Const o.Ir.name [] in
          (match Ir.attr "value" o with
          | Some (Attr.Int k) ->
              List.iter (fun (r : Ir.value) -> Hashtbl.replace consts r.Ir.vid k) o.results
          | _ -> ());
          List.iter (fun (r : Ir.value) -> Hashtbl.replace defs r.Ir.vid id) o.results
      | name ->
          let cls = classify_ir_op name in
          (* track affine arithmetic on indices *)
          (match (name, o.operands) with
          | ("arith.addi" | "arith.subi"), [ a; bb ] -> (
              let sign = if String.equal name "arith.subi" then -1 else 1 in
              let va = Hashtbl.find_opt affine a.Ir.vid in
              let ka = Hashtbl.find_opt consts a.Ir.vid in
              let vb = Hashtbl.find_opt affine bb.Ir.vid in
              let kb = Hashtbl.find_opt consts bb.Ir.vid in
              match (va, ka, vb, kb) with
              | Some (c, off), _, _, Some k ->
                  List.iter
                    (fun (r : Ir.value) ->
                      Hashtbl.replace affine r.Ir.vid (c, off + (sign * k)))
                    o.results
              | _, Some k, Some (c, off), _ when sign = 1 ->
                  List.iter
                    (fun (r : Ir.value) -> Hashtbl.replace affine r.Ir.vid (c, off + k))
                    o.results
              | _, Some k1, _, Some k2 ->
                  List.iter
                    (fun (r : Ir.value) ->
                      Hashtbl.replace consts r.Ir.vid (k1 + (sign * k2)))
                    o.results
              | _ -> ())
          | "arith.muli", [ a; bb ] -> (
              let va = Hashtbl.find_opt affine a.Ir.vid in
              let ka = Hashtbl.find_opt consts a.Ir.vid in
              let vb = Hashtbl.find_opt affine bb.Ir.vid in
              let kb = Hashtbl.find_opt consts bb.Ir.vid in
              match (va, ka, vb, kb) with
              | Some (c, off), _, _, Some k ->
                  List.iter
                    (fun (r : Ir.value) ->
                      Hashtbl.replace affine r.Ir.vid (c * k, off * k))
                    o.results
              | _, Some k, Some (c, off), _ ->
                  List.iter
                    (fun (r : Ir.value) ->
                      Hashtbl.replace affine r.Ir.vid (c * k, off * k))
                    o.results
              | _, Some k1, _, Some k2 ->
                  List.iter
                    (fun (r : Ir.value) -> Hashtbl.replace consts r.Ir.vid (k1 * k2))
                    o.results
              | _ -> ())
          | _ -> ());
          let id = add_node b cls name (preds_of o.operands) in
          List.iter (fun (r : Ir.value) -> Hashtbl.replace defs r.Ir.vid id) o.results)
    ops;
  finish b

(* ---- synthetic DFGs for benchmarking ------------------------------------------ *)

(* Deterministic pseudo-random DFG: [n] nodes with given class mix. *)
let random ?(seed = 42) ~n ~load_frac ~mul_frac () =
  let st = ref seed in
  let rand m = st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF; !st mod m in
  let b = builder () in
  declare_array b "a" 1024;
  for i = 0 to n - 1 do
    let r = rand 1000 in
    let cls =
      if r < int_of_float (load_frac *. 1000.) then Load
      else if r < int_of_float ((load_frac +. mul_frac) *. 1000.) then Mul
      else Add
    in
    let preds =
      if i = 0 then []
      else
        List.sort_uniq compare
          [ rand i; rand i ]
    in
    let array = if cls = Load then Some "a" else None in
    ignore (add_node b ?array ~index:(Affine { coeff = 1; offset = rand 64 }) cls
              (opclass_name cls) preds)
  done;
  finish b
