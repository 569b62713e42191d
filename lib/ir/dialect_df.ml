(* `df` dialect: dataflow orchestration (the HyperLoom workflow layer).

   A `df.graph` region holds `df.task` ops; each task names its kernel
   function symbol, consumes data values produced by other tasks, and carries
   the data-characteristics annotations (expected size, access pattern,
   security class) that drive compilation and scheduling. *)

open Ir

let task ?(attrs = []) ctx ~kernel inputs out_types =
  op ctx "df.task" inputs out_types
    ~attrs:(("kernel", Attr.sym kernel) :: attrs)

(* External data entering the workflow (sensor stream, historical archive). *)
let source ?(attrs = []) ctx name ty =
  op ctx "df.source" [] [ ty ] ~attrs:(("name", Attr.str name) :: attrs)

let sink ctx name v = op ctx "df.sink" [ v ] [] ~attrs:[ ("name", Attr.str name) ]

let graph ctx name body =
  op ctx "df.graph" [] [] ~regions:[ simple_region body ]
    ~attrs:[ ("name", Attr.str name) ]

let verify_task (o : Ir.op) =
  match Ir.attr_sym "kernel" o with
  | Some _ -> Dialect.ok
  | None -> Dialect.err "df.task: missing @kernel symbol"

let register () =
  Dialect.register "df.graph" ~doc:"Workflow graph container."
    (Dialect.all [ Dialect.expect_regions 1; Dialect.expect_attr "name" ]);
  Dialect.register "df.task" ~doc:"Workflow task bound to a kernel symbol."
    verify_task;
  Dialect.register "df.source" ~doc:"External data source."
    (Dialect.all [ Dialect.expect_operands 0; Dialect.expect_results 1;
                   Dialect.expect_attr "name" ]);
  Dialect.register "df.sink" ~doc:"Workflow output."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 0;
                   Dialect.expect_attr "name" ]);
  Dialect.register "df.barrier" ~doc:"Synchronization token."
    (Dialect.expect_results 1)
