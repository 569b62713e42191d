(** Multilayer perceptron with backpropagation and SGD + momentum.

    Stands in for the "deep learning model trying to characterize the
    complex input/output relationship of the given power plant" (use case
    A) and the traffic prediction model (use case C). *)

type activation = Relu | Tanh | Sigmoid | Linear

type t

(** [create ~layers ~activation ()] builds a network; [layers] lists sizes
    from input to output (He-initialized, linear output layer).
    @raise Invalid_argument with fewer than two sizes. *)
val create : ?seed:int -> layers:int list -> activation:activation -> unit -> t

val forward : t -> float array -> float array

(** One SGD step (momentum 0.9) on a batch; returns the batch MSE. *)
val train_batch : ?lr:float -> t -> float array array -> float array array -> float

(** Mini-batch training of {!train_batch} steps with a fixed shuffle seed;
    returns the per-epoch loss curve. *)
val fit :
  ?epochs:int ->
  ?lr:float ->
  ?batch_size:int ->
  t ->
  float array array ->
  float array array ->
  float list

val predict : t -> float array -> float array
