(** Loop unrolling and function inlining.

    Both are enablers for the HLS flow: unrolling widens the inner loop
    body (more parallel operations per initiation) and inlining removes
    call boundaries so whole kernels become one synthesizable region.
    Semantics preservation is checked against the interpreter in the test
    suite. *)

(** Trip count of a constant-bound loop; [None] for non-positive steps. *)
val trip_count : lo:int -> hi:int -> step:int -> int option

(** Fully unroll constant-bound [scf.for] loops with trip count <= [limit]
    (default 64); larger loops are left intact.  Iteration arguments chain
    through the unrolled clones.  Kept for PAPER.md §1's IR row (full
    unrolling), and [?limit] with it: the bound past which a loop stays. *)
val full_unroll : ?limit:int -> Ir.ctx -> Ir.func -> Ir.func

(** Unroll constant-bound loops by [factor] when the trip count divides
    evenly; other loops are left intact. *)
val unroll_by : Ir.ctx -> factor:int -> Ir.func -> Ir.func

(** Inline every [func.call] whose callee is defined in the module and has
    at most 1000 operations.  Kept for PAPER.md §1's IR row (function
    inlining). *)
val inline_module : Ir.ctx -> Ir.modul -> Ir.modul
