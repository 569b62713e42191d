(* Typed tensor-expression eDSL (the CFDlang / TeIL lineage of EVEREST).

   Expressions are built with smart constructors that perform shape
   inference eagerly, so ill-shaped programs are rejected at construction
   time — the "provably safe execution" the paper attributes to typed
   tensor languages.  An expression can be evaluated directly (reference
   semantics), cost-analyzed, or lowered to the tensor dialect of the IR. *)

exception Shape_error of string

let shape_err fmt = Fmt.kstr (fun s -> raise (Shape_error s)) fmt

type binop = Add | Sub | Mul | Div
type unop = Relu | Sigmoid | Tanh

type expr = { node : node; shape : int list }

and node =
  | Input of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Scale of float * expr
  | Matmul of expr * expr
  | Contract of string * expr list

let shape e = e.shape
let num_elems s = List.fold_left ( * ) 1 s

let input name shape = { node = Input name; shape }

let binop op a b =
  if a.shape <> b.shape then
    shape_err "elementwise %s: shapes %a vs %a"
      (match op with Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div")
      Fmt.(Dump.list int) a.shape Fmt.(Dump.list int) b.shape;
  { node = Binop (op, a, b); shape = a.shape }

let add = binop Add

(* Infix operators, in a submodule so arithmetic inside this file and in
   client code stays unambiguous unless explicitly opened. *)
module O = struct
  let ( + ) a b = binop Add a b
  let ( - ) a b = binop Sub a b
  let ( * ) a b = binop Mul a b
  let ( / ) a b = binop Div a b
end

let unop op a = { node = Unop (op, a); shape = a.shape }
let relu a = unop Relu a
let sigmoid a = unop Sigmoid a

let scale k a = { node = Scale (k, a); shape = a.shape }

let matmul a b =
  match (a.shape, b.shape) with
  | [ m; k ], [ k'; n ] when k = k' -> { node = Matmul (a, b); shape = [ m; n ] }
  | _ ->
      shape_err "matmul: %a x %a" Fmt.(Dump.list int) a.shape
        Fmt.(Dump.list int) b.shape

(* Einsum-style contraction.  The spec fixes operand ranks and output
   shape; extents are checked for consistency across operands. *)
let contract spec operands =
  let lhs, rhs =
    match String.index_opt spec '>' with
    | Some i when Stdlib.( > ) i 0 && spec.[i - 1] = '-' ->
        ( String.sub spec 0 (i - 1),
          String.sub spec Stdlib.(i + 1) Stdlib.(String.length spec - i - 1) )
    | _ -> shape_err "contract: bad spec %S" spec
  in
  let in_specs = String.split_on_char ',' lhs in
  if List.length in_specs <> List.length operands then
    shape_err "contract: %d specs for %d operands" (List.length in_specs)
      (List.length operands);
  let extents = Hashtbl.create 8 in
  List.iter2
    (fun s (e : expr) ->
      if String.length s <> List.length e.shape then
        shape_err "contract: spec %S does not match rank %d" s
          (List.length e.shape);
      List.iteri
        (fun i d ->
          let l = s.[i] in
          match Hashtbl.find_opt extents l with
          | Some d' when d' <> d ->
              shape_err "contract: label %c has extents %d and %d" l d' d
          | _ -> Hashtbl.replace extents l d)
        e.shape)
    in_specs operands;
  let out_shape =
    List.init (String.length rhs) (fun i ->
        match Hashtbl.find_opt extents rhs.[i] with
        | Some d -> d
        | None -> shape_err "contract: output label %c unbound" rhs.[i])
  in
  { node = Contract (spec, operands); shape = out_shape }

(* ---- free inputs ----------------------------------------------------------- *)

let rec inputs_of e acc =
  match e.node with
  | Input n -> if List.mem_assoc n acc then acc else (n, e.shape) :: acc
  | Binop (_, a, b) | Matmul (a, b) -> inputs_of b (inputs_of a acc)
  | Unop (_, a) | Scale (_, a) -> inputs_of a acc
  | Contract (_, es) -> List.fold_left (fun acc e -> inputs_of e acc) acc es

let inputs e = List.rev (inputs_of e [])

(* ---- reference evaluation --------------------------------------------------- *)

type tensor = { dims : int list; data : float array }

let tensor dims data =
  if num_elems dims <> Array.length data then invalid_arg "tensor: size mismatch";
  { dims; data }

let tensor_scalar v = { dims = []; data = [| v |] }

let binop_fun = function
  | Add -> ( +. ) | Sub -> ( -. ) | Mul -> ( *. ) | Div -> ( /. )

let unop_fun = function
  | Relu -> fun x -> Float.max 0.0 x
  | Sigmoid -> fun x -> 1.0 /. (1.0 +. exp (-.x))
  | Tanh -> Float.tanh

let rec eval (env : (string * tensor) list) (e : expr) : tensor =
  match e.node with
  | Input n -> (
      match List.assoc_opt n env with
      | Some t ->
          if t.dims <> e.shape then
            shape_err "eval: input %S has shape %a, expected %a" n
              Fmt.(Dump.list int) t.dims Fmt.(Dump.list int) e.shape;
          t
      | None -> shape_err "eval: missing input %S" n)
  | Binop (op, a, b) ->
      let ta = eval env a and tb = eval env b in
      { dims = ta.dims; data = Array.map2 (binop_fun op) ta.data tb.data }
  | Unop (op, a) ->
      let ta = eval env a in
      { dims = ta.dims; data = Array.map (unop_fun op) ta.data }
  | Scale (k, a) ->
      let ta = eval env a in
      { dims = ta.dims; data = Array.map (fun x -> k *. x) ta.data }
  | Matmul (a, b) -> (
      let ta = eval env a and tb = eval env b in
      match (ta.dims, tb.dims) with
      | [ m; k ], [ _; n ] ->
          let out = Array.make Stdlib.(m * n) 0.0 in
          for i = 0 to Stdlib.(m - 1) do
            for j = 0 to Stdlib.(n - 1) do
              let acc = ref 0.0 in
              for l = 0 to Stdlib.(k - 1) do
                acc :=
                  !acc
                  +. Stdlib.( *. )
                       ta.data.(Stdlib.((i * k) + l))
                       tb.data.(Stdlib.((l * n) + j))
              done;
              out.(Stdlib.((i * n) + j)) <- !acc
            done
          done;
          { dims = [ m; n ]; data = out }
      | _ -> assert false)
  | Contract (spec, operands) ->
      let ts = List.map (eval env) operands in
      let bufs =
        List.map
          (fun (t : tensor) ->
            { Everest_ir.Interp.shape = t.dims; data = t.data;
              space = Everest_ir.Types.Host })
          ts
      in
      let out = Everest_ir.Interp.einsum spec bufs in
      { dims = out.Everest_ir.Interp.shape; data = out.Everest_ir.Interp.data }

(* ---- cost model -------------------------------------------------------------- *)

(* Floating-point operations needed by a single evaluation. *)
let rec flops e =
  let open Stdlib in
  match e.node with
  | Input _ -> 0
  | Binop (_, a, b) -> num_elems e.shape + flops a + flops b
  | Unop (_, a) | Scale (_, a) -> num_elems e.shape + flops a
  | Matmul (a, b) -> (
      match (a.shape, b.shape) with
      | [ m; k ], [ _; n ] -> (2 * m * n * k) + flops a + flops b
      | _ -> assert false)
  | Contract (spec, operands) ->
      (* index-space size = product of distinct label extents *)
      let all_labels = Hashtbl.create 8 in
      let lhs =
        match String.index_opt spec '-' with
        | Some i -> String.sub spec 0 i
        | None -> spec
      in
      let in_specs = String.split_on_char ',' lhs in
      List.iter2
        (fun s (o : expr) ->
          List.iteri (fun i d -> Hashtbl.replace all_labels s.[i] d) o.shape)
        in_specs operands;
      let space = Hashtbl.fold (fun _ d acc -> acc * d) all_labels 1 in
      (2 * space) + List.fold_left (fun acc o -> acc + flops o) 0 operands

(* Bytes touched, assuming each input is read once and output written once. *)
let bytes_moved e =
  let open Stdlib in
  let ins = inputs e in
  let in_bytes =
    List.fold_left (fun acc (_, s) -> acc + (8 * num_elems s)) 0 ins
  in
  in_bytes + (8 * num_elems e.shape)

(* ---- structural fingerprint --------------------------------------------------- *)

(* Compact serialization of the full structure — node kinds, operator
   payloads, input names and every shape — used as the expression half of
   the compiler's estimation-cache keys.  Two expressions share a
   fingerprint iff they are structurally identical, so cached cost/HLS
   results keyed on it are safe to reuse across DSE strategies and
   compilation runs. *)
let fingerprint e =
  let buf = Buffer.create 128 in
  let dims s =
    Buffer.add_char buf '[';
    List.iter
      (fun d ->
        Buffer.add_string buf (string_of_int d);
        Buffer.add_char buf ',')
      s;
    Buffer.add_char buf ']'
  in
  let rec go e =
    Buffer.add_char buf '(';
    (match e.node with
    | Input n ->
        Buffer.add_string buf "in:";
        Buffer.add_string buf n
    | Binop (op, a, b) ->
        Buffer.add_string buf "bin:";
        Buffer.add_string buf
          (match op with
          | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div");
        go a;
        go b
    | Unop (op, a) ->
        Buffer.add_string buf "un:";
        Buffer.add_string buf
          (match op with
          | Relu -> "relu" | Sigmoid -> "sigmoid" | Tanh -> "tanh");
        go a
    | Scale (k, a) ->
        Buffer.add_string buf (Printf.sprintf "scale:%h" k);
        go a
    | Matmul (a, b) ->
        Buffer.add_string buf "mm:";
        go a;
        go b
    | Contract (spec, es) ->
        Buffer.add_string buf "ein:";
        Buffer.add_string buf spec;
        List.iter go es);
    dims e.shape;
    Buffer.add_char buf ')'
  in
  go e;
  Buffer.contents buf
