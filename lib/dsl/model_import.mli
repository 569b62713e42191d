(** Import of ML models from a textual exchange format.

    The paper commits the toolchain to "standard exchange formats used in
    machine learning (e.g., NNEF or ONNX)"; this is an NNEF-flavoured
    textual subset describing feed-forward graphs:

    {v
    # day-ahead power model
    input    features 1x16
    dense    l1 16x32 relu
    dense    l2 32x8  tanh
    dense    out 8x1  linear
    scale    0.001
    v}

    Each [dense NAME RxC ACT] multiplies the running value by a weight
    input named NAME (shape RxC) and applies the activation.  The result is
    an ordinary {!Tensor_expr.expr} over (data, weights) that compiles like
    any other DSL kernel. *)

exception Import_error of string

type layer =
  | L_input of string * int * int
  | L_dense of string * int * int * string
  | L_scale of float
  | L_activation of string

(** Kept for PAPER.md §1's DSL row (the NNEF/ONNX-style model importer):
    parse the textual form (comments with [#], blank lines ignored).
    @raise Import_error on malformed input. *)
val parse_layers : string -> layer list

(** Kept for PAPER.md §1's DSL row: build the model expression.
    @raise Import_error on shape mismatches or missing input. *)
val to_expr : layer list -> Tensor_expr.expr

(** Kept for PAPER.md §1's DSL row: [parse_layers] followed by
    [to_expr]. *)
val import : string -> Tensor_expr.expr

(** Kept for PAPER.md §1's DSL row: layer widths (input then per-dense
    outputs), for {!Dataflow.Ai_model}. *)
val layer_sizes : layer list -> int list

(** Kept for PAPER.md §1's DSL row: the weight inputs (name, shape) the
    runtime must bind. *)
val weights : layer list -> (string * int list) list
