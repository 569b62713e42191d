(* `scf` dialect: structured control flow (for / if / while-free subset).

   `scf.for` carries lower/upper/step operands, iteration arguments and a
   single-block body whose block arguments are [induction-var; iter-args...].
   The body terminates with `scf.yield`. *)

open Ir

let yield ctx vs = op ctx "scf.yield" vs []

(* [for_ ctx lo hi step ~iter_args body] where [body ctx iv args] returns the
   body ops and the values to yield. *)
let for_ ?(iter_args = []) ?(attrs = []) ctx lo hi step body =
  let iv = fresh_value ctx Types.index in
  let bargs = List.map (fun (v : value) -> fresh_value ctx v.vty) iter_args in
  let body_ops, yielded = body ctx iv bargs in
  let body_ops = body_ops @ [ yield ctx yielded ] in
  op ctx "scf.for"
    ([ lo; hi; step ] @ iter_args)
    (List.map (fun (v : value) -> v.vty) iter_args)
    ~regions:[ [ block ~args:(iv :: bargs) body_ops ] ]
    ~attrs

let verify_for (o : Ir.op) =
  let n_ops = List.length o.operands in
  if n_ops < 3 then Dialect.err "scf.for: needs lo/hi/step"
  else
    let n_iter = n_ops - 3 in
    if List.length o.results <> n_iter then
      Dialect.err "scf.for: results must match iter_args"
    else
      match o.regions with
      | [ [ b ] ] ->
          if List.length b.bargs <> n_iter + 1 then
            Dialect.err "scf.for: body needs %d block args" (n_iter + 1)
          else (
            match List.rev b.body with
            | last :: _ when String.equal last.name "scf.yield" ->
                if List.length last.operands = n_iter then Dialect.ok
                else Dialect.err "scf.for: yield arity mismatch"
            | _ -> Dialect.err "scf.for: body must end in scf.yield")
      | _ -> Dialect.err "scf.for: expected one single-block region"

let verify_if (o : Ir.op) =
  match (o.operands, o.regions) with
  | [ _ ], [ [ _ ]; [ _ ] ] -> Dialect.ok
  | [ _ ], [ [ _ ] ] -> Dialect.ok
  | _ -> Dialect.err "scf.if: one condition and one or two single-block regions"

let register () =
  Dialect.register "scf.for" ~doc:"Counted loop with iteration arguments."
    verify_for;
  Dialect.register "scf.parallel" ~doc:"Parallel counted loop."
    (Dialect.all [ Dialect.expect_regions 1 ]);
  Dialect.register "scf.if" ~doc:"Conditional with optional results." verify_if;
  Dialect.register "scf.yield" ~traits:[ Dialect.Terminator ]
    ~doc:"Region terminator yielding values." (Dialect.all [ Dialect.expect_results 0 ])
