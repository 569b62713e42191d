(** Dataset utilities: normalization, splits, batching. *)

(** Per-feature standardization parameters. *)
type norm = { means : float array; stds : float array }

(** @raise Invalid_argument on empty input. *)
val fit_norm : float array array -> norm

val normalize : norm -> float array -> float array

(** Shuffled mini-batches covering every sample exactly once. *)
val batches :
  Rng.t ->
  batch_size:int ->
  'a array ->
  'b array ->
  ('a array * 'b array) list
