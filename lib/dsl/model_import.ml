(* Import of ML models from a textual exchange format.

   The paper commits the toolchain to "standard exchange formats used in
   machine learning (e.g., NNEF or ONNX)".  This module implements an
   NNEF-flavoured textual subset describing feed-forward graphs, parsed
   into tensor-expression kernels the compiler treats like any other DSL
   kernel:

     # day-ahead power model
     input    features 1x16
     dense    l1 16x32 relu
     dense    l2 32x8  tanh
     dense    out 8x1  linear
     scale    0.001

   Each [dense NAME RxC ACT] multiplies the running value by a weight
   input named NAME (shape RxC) and applies the activation. *)

exception Import_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Import_error s)) fmt

type layer =
  | L_input of string * int * int
  | L_dense of string * int * int * string
  | L_scale of float
  | L_activation of string

let parse_shape s =
  match String.split_on_char 'x' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some r, Some c when r > 0 && c > 0 -> (r, c)
      | _ -> fail "bad shape %S" s)
  | _ -> fail "bad shape %S (expected RxC)" s

let activations = [ "relu"; "sigmoid"; "tanh"; "linear" ]

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let words =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> None
  | [ "input"; name; shape ] ->
      let r, c = parse_shape shape in
      Some (L_input (name, r, c))
  | [ "dense"; name; shape; act ] ->
      if not (List.mem act activations) then
        fail "line %d: unknown activation %S" lineno act;
      let r, c = parse_shape shape in
      Some (L_dense (name, r, c, act))
  | [ "scale"; k ] -> (
      match float_of_string_opt k with
      | Some f -> Some (L_scale f)
      | None -> fail "line %d: bad scale %S" lineno k)
  | [ "activation"; act ] ->
      if not (List.mem act activations) then
        fail "line %d: unknown activation %S" lineno act;
      Some (L_activation act)
  | w :: _ -> fail "line %d: unknown directive %S" lineno w

let parse_layers (src : string) : layer list =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (i, l) -> parse_line i l)

let apply_activation e = function
  | "relu" -> Tensor_expr.relu e
  | "sigmoid" -> Tensor_expr.sigmoid e
  | "tanh" -> Tensor_expr.unop Tensor_expr.Tanh e
  | "linear" -> e
  | a -> fail "unknown activation %S" a

(* Build the tensor expression of the whole model.  Weights become named
   inputs so the compiler sees an ordinary kernel over (data, weights). *)
let to_expr (layers : layer list) : Tensor_expr.expr =
  match layers with
  | L_input (name, r, c) :: rest ->
      let start = Tensor_expr.input name [ r; c ] in
      List.fold_left
        (fun acc l ->
          match l with
          | L_input _ -> fail "only one input supported"
          | L_dense (wname, wr, wc, act) -> (
              match Tensor_expr.shape acc with
              | [ _; k ] when k = wr ->
                  let w = Tensor_expr.input wname [ wr; wc ] in
                  apply_activation (Tensor_expr.matmul acc w) act
              | s ->
                  fail "dense %s: expects inner dim %d, got %s" wname wr
                    (String.concat "x" (List.map string_of_int s)))
          | L_scale k -> Tensor_expr.scale k acc
          | L_activation act -> apply_activation acc act)
        start rest
  | _ -> fail "model must start with an input declaration"

let import (src : string) : Tensor_expr.expr = to_expr (parse_layers src)

(* Hidden-layer sizes for a Dataflow.Ai_model description. *)
let layer_sizes (layers : layer list) : int list =
  List.filter_map
    (function
      | L_input (_, _, c) -> Some c
      | L_dense (_, _, c, _) -> Some c
      | _ -> None)
    layers

(* Weight inputs (name, shape) the runtime must bind. *)
let weights (layers : layer list) =
  List.filter_map
    (function L_dense (n, r, c, _) -> Some (n, [ r; c ]) | _ -> None)
    layers
