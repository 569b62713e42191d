(* `memref` dialect: buffers with explicit memory spaces.

   Memory spaces matter to EVEREST: the compiler moves data between host
   DRAM, FPGA BRAM/HBM and remote nodes, and the HLS memory partitioner
   rewrites single memrefs into banked ones. *)

open Ir

let alloc ctx elt shape = op ctx "memref.alloc" [] [ Types.memref elt shape ]

let dealloc ctx m = op ctx "memref.dealloc" [ m ] []

let load ctx m idxs =
  let elt =
    match m.vty with
    | Types.Memref { elt; _ } -> Types.Scalar elt
    | _ -> invalid_arg "memref.load: not a memref"
  in
  op ctx "memref.load" (m :: idxs) [ elt ]

let store ctx v m idxs = op ctx "memref.store" (v :: m :: idxs) []
let copy ctx src dst = op ctx "memref.copy" [ src; dst ] []

let memref_rank (v : value) =
  match v.vty with Types.Memref { shape; _ } -> List.length shape | _ -> -1

let verify_load (o : Ir.op) =
  match o.operands with
  | m :: idxs when memref_rank m >= 0 ->
      if List.length idxs = memref_rank m then
        Dialect.expect_results 1 o
      else Dialect.err "memref.load: index count must equal rank"
  | _ -> Dialect.err "memref.load: first operand must be a memref"

let verify_store (o : Ir.op) =
  match o.operands with
  | _ :: m :: idxs when memref_rank m >= 0 ->
      if List.length idxs = memref_rank m then Dialect.ok
      else Dialect.err "memref.store: index count must equal rank"
  | _ -> Dialect.err "memref.store: second operand must be a memref"

let register () =
  Dialect.register "memref.alloc" ~doc:"Allocate a buffer in a memory space."
    (Dialect.expect_results 1);
  Dialect.register "memref.dealloc" ~doc:"Free a buffer."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 0 ]);
  Dialect.register "memref.load" ~doc:"Indexed read." verify_load;
  Dialect.register "memref.store" ~doc:"Indexed write." verify_store;
  Dialect.register "memref.copy" ~doc:"Bulk copy between buffers."
    (Dialect.all [ Dialect.expect_operands 2; Dialect.expect_results 0 ]);
  Dialect.register "memref.transfer"
    ~doc:"Move a buffer to another memory space."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ])
