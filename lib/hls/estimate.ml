(* Area / timing / energy estimation for synthesized accelerators.

   The numbers follow typical 32-bit floating-point operator costs on a
   Xilinx-class FPGA fabric (the "hardware estimations for code-snippets"
   of Fig. 1).  Absolute values matter less than relative ordering: the DSE
   compares variants, and the platform simulator converts cycles to time. *)

type area = { luts : int; ffs : int; dsps : int; brams : int }

let zero_area = { luts = 0; ffs = 0; dsps = 0; brams = 0 }

let add_area a b =
  { luts = a.luts + b.luts; ffs = a.ffs + b.ffs; dsps = a.dsps + b.dsps;
    brams = a.brams + b.brams }

let scale_area k a =
  { luts = k * a.luts; ffs = k * a.ffs; dsps = k * a.dsps; brams = k * a.brams }

let fu_area = function
  | Cdfg.Add -> { luts = 350; ffs = 400; dsps = 2; brams = 0 }
  | Mul -> { luts = 100; ffs = 150; dsps = 3; brams = 0 }
  | Div -> { luts = 800; ffs = 900; dsps = 0; brams = 0 }
  | Logic -> { luts = 50; ffs = 30; dsps = 0; brams = 0 }
  | Load | Store -> { luts = 60; ffs = 40; dsps = 0; brams = 0 }
  | Const | Nop -> zero_area

let register_area = { luts = 0; ffs = 32; dsps = 0; brams = 0 }

(* 18kbit BRAM blocks for [elems] 32-bit words. *)
let brams_for_elems elems = max 1 ((elems * 32) + 18_431) / 18_432

type t = {
  area : area;
  cycles : int;  (* one invocation, or fill+drain+II*(trips-1) if pipelined *)
  ii : int;  (* initiation interval; 0 when not pipelined *)
  clock_mhz : float;
  dynamic_power_w : float;
}


(* Dynamic power model: proportional to active logic. *)
let power_of_area a clock_mhz =
  let cap =
    (0.02 *. float_of_int a.luts)
    +. (0.01 *. float_of_int a.ffs)
    +. (0.5 *. float_of_int a.dsps)
    +. (1.2 *. float_of_int a.brams)
  in
  1e-4 *. cap *. clock_mhz /. 100.0 +. 0.5 (* static floor *)

let of_design ?(clock_mhz = 250.0) ?states (g : Cdfg.t) (b : Bind.binding)
    ~(cycles : int) ~(ii : int) ~(banks : int) =
  (* A pipelined design with initiation interval [ii] cannot share one unit
     among more than [ii] same-class operations: floor the allocation at
     ceil(population / ii) even if the one-iteration binding shared more. *)
  let fu_total =
    let bound cls =
      List.length (List.filter (fun (f : Bind.fu) -> f.Bind.fu_class = cls) b.Bind.fus)
    in
    let needed cls =
      let pop = Cdfg.count_class g cls in
      if ii <= 0 then bound cls
      else max (bound cls) ((pop + ii - 1) / ii)
    in
    List.fold_left
      (fun acc cls -> add_area acc (scale_area (needed cls) (fu_area cls)))
      zero_area
      [ Cdfg.Add; Cdfg.Mul; Cdfg.Div; Cdfg.Logic; Cdfg.Load; Cdfg.Store ]
  in
  let regs = scale_area b.Bind.registers register_area in
  let mem =
    List.fold_left
      (fun acc (_, elems) ->
        add_area acc { zero_area with brams = brams_for_elems elems })
      zero_area g.Cdfg.arrays
  in
  (* extra banks replicate BRAM (same capacity split) plus banking muxes *)
  let banking =
    { zero_area with luts = 40 * banks; ffs = 16 * banks;
      brams = max 0 (banks - List.length g.Cdfg.arrays) }
  in
  (* FSM size follows the controller's state count (one schedule iteration),
     not the total trip count *)
  let ctrl_states = max 1 (Option.value ~default:cycles states) in
  let fsm = { zero_area with luts = 8 * ctrl_states; ffs = 2 * ctrl_states } in
  let area = List.fold_left add_area zero_area [ fu_total; regs; mem; banking; fsm ] in
  { area; cycles; ii; clock_mhz; dynamic_power_w = power_of_area area clock_mhz }

let fits ~budget e =
  e.area.luts <= budget.luts && e.area.ffs <= budget.ffs
  && e.area.dsps <= budget.dsps && e.area.brams <= budget.brams

let pp_area ppf a =
  Fmt.pf ppf "%d LUT, %d FF, %d DSP, %d BRAM" a.luts a.ffs a.dsps a.brams

let pp ppf e =
  Fmt.pf ppf "{%a; %d cycles; II=%d; %.0f MHz; %.2f W}" pp_area e.area e.cycles
    e.ii e.clock_mhz e.dynamic_power_w
