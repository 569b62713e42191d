(* Data-flow graphs for high-level synthesis.

   The HLS flow consumes straight-line scalar code: the per-element body of
   a kernel, built by the compiler ([Hw_lower.dfg_of_expr]).  Each node has
   an operation class that determines its latency and the functional unit
   that can execute it.  Loads and stores carry the array they touch plus
   an affine view of their index expression, which the memory partitioner
   needs. *)

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
  op_name : string;  (* originating operation, for diagnostics *)
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
