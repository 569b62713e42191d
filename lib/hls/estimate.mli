(** Area / timing / energy estimation for synthesized accelerators.

    Costs follow typical 32-bit floating-point operator figures on a
    Xilinx-class fabric (the "hardware estimations for code-snippets" of
    Fig. 1).  Absolute values matter less than relative ordering: the DSE
    compares variants and the platform simulator converts cycles to time. *)

type area = { luts : int; ffs : int; dsps : int; brams : int }

val zero_area : area
val add_area : area -> area -> area
val scale_area : int -> area -> area

(** Area of one functional unit of the class. *)
val fu_area : Cdfg.opclass -> area

val register_area : area

(** 18-kbit BRAM blocks needed for [elems] 32-bit words. *)
val brams_for_elems : int -> int

type t = {
  area : area;
  cycles : int;  (** Total cycles of one invocation (pipelined: fill +
                     II*(trips-1)). *)
  ii : int;  (** Initiation interval; 0 when not pipelined. *)
  clock_mhz : float;
  dynamic_power_w : float;
}

(** Dynamic power from active logic at the given clock. *)
val power_of_area : area -> float -> float

(** Assemble an estimate from a bound design.  [states] is the controller's
    state count (defaults to [cycles]); a pipelined design with interval
    [ii] cannot share one unit among more than [ii] same-class ops, so the
    unit allocation is floored at [population/ii]. *)
val of_design :
  ?clock_mhz:float ->
  ?states:int ->
  Cdfg.t ->
  Bind.binding ->
  cycles:int ->
  ii:int ->
  banks:int ->
  t

(** Does the estimate fit a device budget? *)
val fits : budget:area -> t -> bool

val pp_area : Format.formatter -> area -> unit
val pp : Format.formatter -> t -> unit
