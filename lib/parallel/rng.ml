(* Park–Miller minimal-standard PRNG (Lehmer, multiplier 48271 modulo the
   Mersenne prime 2^31-1), hoisted out of the ad-hoc copies that used to
   live in dse.ml, dag.ml and orchestrator.ml.

   Those copies had a lethal seeding bug: state 0 is a fixed point of
   [s * 48271 mod (2^31-1)], so a user-supplied seed of 0 (or any multiple
   of 0x7FFFFFFF) made the generator emit 0 forever.  [create] guards the
   seed into the generator's period [1, 2^31-2]; for seeds already in that
   range the emitted sequence is identical to the historical one. *)

let modulus = 0x7FFFFFFF  (* 2^31 - 1, prime *)
let multiplier = 48271

type t = { mutable state : int }

let create seed =
  (* map any int into [0, modulus), then kick the absorbing state 0 *)
  let s = ((seed mod modulus) + modulus) mod modulus in
  { state = (if s = 0 then 1 else s) }

let next t =
  t.state <- t.state * multiplier mod modulus;
  t.state

(* Uniform draw in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Everest_parallel.Rng.int: bound <= 0";
  next t mod bound

(* Uniform draw in [0, 1). *)
let float t = float_of_int (next t) /. float_of_int modulus

(* Raw stream position, for checkpoint/restore.  [set_state] guards the
   incoming value the same way [create] guards seeds, so a corrupted
   snapshot can never install the absorbing state 0. *)
let state t = t.state

let set_state t s =
  let s = ((s mod modulus) + modulus) mod modulus in
  t.state <- (if s = 0 then 1 else s)
