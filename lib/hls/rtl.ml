(* RTL netlist generation and Verilog-style emission.

   The generated module contains one instance per bound functional unit, a
   register file sized by the binding, banked memories from the partitioner,
   and an FSM with one state per schedule cycle driving enable signals.
   The emission is a faithful structural sketch (enough to inspect, diff and
   count), not a tape-out netlist. *)

type port = { pname : string; dir : [ `In | `Out ]; width : int }

type instance = {
  iname : string;
  module_name : string;
  params : (string * string) list;
}

type fsm_state = { state_id : int; active : (string * int) list (* fu, node *) }

type t = {
  name : string;
  ports : port list;
  instances : instance list;
  registers : int;
  states : fsm_state list;
}

let fu_module = function
  | Cdfg.Add -> "fp_add"
  | Mul -> "fp_mul"
  | Div -> "fp_div"
  | Logic -> "alu_logic"
  | Load -> "mem_rd_port"
  | Store -> "mem_wr_port"
  | Const -> "const_rom"
  | Nop -> "wire"

let generate ~name (g : Cdfg.t) (s : Schedule.t) (b : Bind.binding)
    (mem : (string * Mem_partition.config * int) list) : t =
  let ports =
    [ { pname = "clk"; dir = `In; width = 1 };
      { pname = "rst"; dir = `In; width = 1 };
      { pname = "start"; dir = `In; width = 1 };
      { pname = "done"; dir = `Out; width = 1 } ]
    @ List.concat_map
        (fun (arr, (cfg : Mem_partition.config), _) ->
          List.init cfg.Mem_partition.banks (fun k ->
              [ { pname = Printf.sprintf "%s_bank%d_addr" arr k; dir = `Out; width = 32 };
                { pname = Printf.sprintf "%s_bank%d_q" arr k; dir = `In; width = 32 };
                { pname = Printf.sprintf "%s_bank%d_d" arr k; dir = `Out; width = 32 } ])
          |> List.concat)
        mem
  in
  let instances =
    List.map
      (fun (f : Bind.fu) ->
        { iname = Printf.sprintf "u_%s_%d" (Cdfg.opclass_name f.Bind.fu_class) f.Bind.fu_id;
          module_name = fu_module f.Bind.fu_class;
          params = [ ("WIDTH", "32") ] })
      b.Bind.fus
  in
  let fu_of_node n = List.assoc_opt n b.Bind.node_fu in
  let states =
    List.init (max 1 s.Schedule.makespan) (fun c ->
        let active =
          Array.to_list g.Cdfg.nodes
          |> List.filter_map (fun (nd : Cdfg.node) ->
                 if s.Schedule.start.(nd.Cdfg.id) = c then
                   match fu_of_node nd.Cdfg.id with
                   | Some fu ->
                       Some (Printf.sprintf "fu%d" fu, nd.Cdfg.id)
                   | None -> None
                 else None)
        in
        { state_id = c; active })
  in
  { name; ports; instances; registers = b.Bind.registers; states }

let emit ppf (m : t) =
  Fmt.pf ppf "module %s (@." m.name;
  List.iter
    (fun p ->
      Fmt.pf ppf "  %s %s [%d:0] %s,@."
        (match p.dir with `In -> "input" | `Out -> "output")
        "wire" (p.width - 1) p.pname)
    m.ports;
  Fmt.pf ppf ");@.";
  Fmt.pf ppf "  // %d registers@." m.registers;
  Fmt.pf ppf "  reg [%d:0] state;@." (max 1 (List.length m.states) - 1);
  List.iter
    (fun i ->
      Fmt.pf ppf "  %s #(%a) %s ();@." i.module_name
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> Fmt.pf ppf ".%s(%s)" k v))
        i.params i.iname)
    m.instances;
  Fmt.pf ppf "  always @@(posedge clk) begin@.";
  Fmt.pf ppf "    case (state)@.";
  List.iter
    (fun st ->
      Fmt.pf ppf "      %d: begin %a end@." st.state_id
        Fmt.(
          list ~sep:(any " ") (fun ppf (fu, node) ->
              Fmt.pf ppf "%s_en <= 1; // op %d" fu node))
        st.active)
    m.states;
  Fmt.pf ppf "    endcase@.";
  Fmt.pf ppf "  end@.";
  Fmt.pf ppf "endmodule@."

let to_string m = Fmt.str "%a" emit m
