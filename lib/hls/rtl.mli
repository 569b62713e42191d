(** RTL netlist generation and Verilog-style emission.

    The generated module contains one instance per bound functional unit, a
    register file sized by the binding, banked memory ports from the
    partitioner, and an FSM with one state per schedule cycle.  The emission
    is a faithful structural sketch (enough to inspect, diff and count), not
    a tape-out netlist. *)

type port = { pname : string; dir : [ `In | `Out ]; width : int }

type instance = {
  iname : string;
  module_name : string;
  params : (string * string) list;
}

type fsm_state = { state_id : int; active : (string * int) list }

type t = {
  name : string;
  ports : port list;
  instances : instance list;
  registers : int;
  states : fsm_state list;
}

(** Module name of the functional unit implementing a class. *)
val fu_module : Cdfg.opclass -> string

val generate :
  name:string ->
  Cdfg.t ->
  Schedule.t ->
  Bind.binding ->
  (string * Mem_partition.config * int) list ->
  t

val emit : Format.formatter -> t -> unit
val to_string : t -> string
