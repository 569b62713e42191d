(* `hw` dialect: hardware variants.

   `hw.kernel` wraps a region of tensor/loop ops that the HLS flow turns into
   an accelerator; its attributes record the estimates (area, latency,
   initiation interval) the DSE and runtime need.  `hw.offload` is the
   call-site form referring to an outlined kernel function. *)

let register () =
  Dialect.register "hw.kernel" ~doc:"Outlined hardware kernel."
    (Dialect.all [ Dialect.expect_regions 1; Dialect.expect_attr "sym" ]);
  Dialect.register "hw.offload" ~doc:"Invoke a hardware kernel."
    (fun o ->
      match Ir.attr_sym "kernel" o with
      | Some _ -> Dialect.ok
      | None -> Dialect.err "hw.offload: missing @kernel symbol");
  Dialect.register "hw.stream_read" ~doc:"Pop one element from a stream."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ]);
  Dialect.register "hw.stream_write" ~doc:"Push one element into a stream."
    (Dialect.all [ Dialect.expect_operands 2; Dialect.expect_results 0 ]);
  Dialect.register "hw.reconfig" ~doc:"Partial reconfiguration."
    (Dialect.all [ Dialect.expect_attr "bitstream"; Dialect.expect_results 1 ]);
  Dialect.register "hw.yield" ~traits:[ Dialect.Terminator ]
    ~doc:"Kernel region terminator." Dialect.no_verify
