(** Dataset utilities: normalization, splits, batching. *)

(** Per-feature standardization parameters. *)
type norm = { means : float array; stds : float array }

(** @raise Invalid_argument on empty input. *)
val fit_norm : float array array -> norm

val normalize : norm -> float array -> float array

(** Front/back split (no shuffling — time series stay ordered). *)
val split :
  ?train_frac:float ->
  'a array ->
  'b array ->
  ('a array * 'b array) * ('a array * 'b array)

(** Shuffled mini-batches covering every sample exactly once. *)
val batches :
  Rng.t ->
  batch_size:int ->
  'a array ->
  'b array ->
  ('a array * 'b array) list
