(* Top-level HLS driver (the Bambu role in the EVEREST flow).

   [synthesize] runs schedule -> bind -> partition -> estimate -> RTL on a
   DFG under user constraints, returning a complete design record.  The
   compiler's DSE calls this for every hardware variant candidate. *)

type constraints = {
  res : Schedule.resources;
  clock_mhz : float;
  unroll : int;  (* how many loop iterations the body represents *)
  pipeline : bool;
  partition : bool;  (* run the memory partitioner *)
  max_banks : int;  (* partitioner search bound *)
  dift : bool;  (* instrument with taint tracking *)
  trips : int;  (* loop trip count for execution-time reporting *)
}

let default_constraints =
  { res = Schedule.default_resources; clock_mhz = 250.0; unroll = 1;
    pipeline = true; partition = true; max_banks = 16; dift = false; trips = 1 }

type design = {
  dfg : Cdfg.t;
  schedule : Schedule.t;
  binding : Bind.binding;
  mem : (string * Mem_partition.config * int) list;
  estimate : Estimate.t;
  rtl : Rtl.t;
}

let synthesize ?(c = default_constraints) ?(name = "kernel") (g : Cdfg.t) : design
    =
  let schedule = Schedule.list_schedule ~res:c.res g in
  let binding = Bind.bind g schedule in
  (* The DFG already contains one node per unrolled access, so the
     partitioner analyses its access set as a single iteration group. *)
  let mem, mem_ii =
    if c.partition then
      Mem_partition.optimize_dfg ~max_banks:c.max_banks
        ~ports:c.res.Schedule.mem_ports ~unroll:1 g
    else
      ( List.map
          (fun (arr, _) ->
            (arr, { Mem_partition.scheme = Mem_partition.Cyclic; banks = 1 }, 1))
          g.Cdfg.arrays,
        Schedule.mem_min_ii ~res:c.res g )
  in
  let fu_ii = Schedule.fu_min_ii ~res:c.res g in
  let ii = if c.pipeline then max fu_ii mem_ii else 0 in
  let cycles =
    if c.pipeline && c.trips > 1 then
      schedule.Schedule.makespan + (ii * (c.trips - 1))
    else schedule.Schedule.makespan * max 1 c.trips
  in
  let banks = Mem_partition.total_banks mem in
  let base_est =
    Estimate.of_design ~clock_mhz:c.clock_mhz
      ~states:schedule.Schedule.makespan g binding ~cycles ~ii ~banks
  in
  let estimate =
    if c.dift then
      let shadow = (Dift.instrument g).Dift.shadow_area in
      { base_est with Estimate.area = Estimate.add_area base_est.Estimate.area shadow }
    else base_est
  in
  let rtl = Rtl.generate ~name g schedule binding mem in
  { dfg = g; schedule; binding; mem; estimate; rtl }

let report ppf (d : design) =
  Fmt.pf ppf "schedule: %d cycles, II=%d@." d.schedule.Schedule.makespan
    d.estimate.Estimate.ii;
  Fmt.pf ppf "FUs: %d, registers: %d@."
    (List.length d.binding.Bind.fus)
    d.binding.Bind.registers;
  List.iter
    (fun (arr, (cfg : Mem_partition.config), ii) ->
      Fmt.pf ppf "array %s: %s x%d banks (II %d)@." arr
        (Mem_partition.scheme_name cfg.Mem_partition.scheme)
        cfg.Mem_partition.banks ii)
    d.mem;
  Fmt.pf ppf "estimate: %a@." Estimate.pp d.estimate
