(* Mesoscopic traffic simulator (§VI-C: "combining both macro and
   microscopic approaches").

   Time is divided into periods (e.g. one hour); within each period, demand
   from the O/D matrix is routed on current travel times, link volumes are
   accumulated, and BPR volume-delay updates speeds.  A few fixed-point
   iterations per period approximate user equilibrium.  The output — per-
   link per-period speeds — is the "traffic model" consumed by prediction
   and routing. *)

type state = {
  net : Roadnet.t;
  periods : int;
  speeds : float array array;  (* period -> link -> speed m/s *)
  volumes : float array array;  (* period -> link -> vph *)
}

let free_flow_state net ~periods =
  {
    net;
    periods;
    speeds =
      Array.init periods (fun _ ->
          Array.map (fun l -> l.Roadnet.free_speed_ms) net.Roadnet.links);
    volumes = Array.init periods (fun _ -> Array.make (Roadnet.n_links net) 0.0);
  }

(* Assign demand for one period given previous speeds; returns volumes. *)
let assign_period (net : Roadnet.t) (od : Od.t) ~hour ~(speeds : float array) =
  let volumes = Array.make (Roadnet.n_links net) 0.0 in
  let cost (l : Roadnet.link) = l.Roadnet.length_m /. speeds.(l.Roadnet.link_id) in
  for o = 0 to od.Od.n_zones - 1 do
    for d = 0 to od.Od.n_zones - 1 do
      if o <> d then begin
        let trips = Od.demand od ~from_zone:o ~to_zone:d ~hour in
        if trips > 0.5 then
          match Routing.shortest net ~cost ~src:o ~dst:d with
          | Some p ->
              List.iter
                (fun lid -> volumes.(lid) <- volumes.(lid) +. trips)
                p.Routing.links
          | None -> ()
      end
    done
  done;
  volumes

(* Run [periods] hours with three equilibrium iterations each. *)
let run (net : Roadnet.t) (od : Od.t) ~periods : state =
  let st = free_flow_state net ~periods in
  for p = 0 to periods - 1 do
    (* warm-start from previous period's speeds *)
    let speeds =
      if p = 0 then Array.map (fun l -> l.Roadnet.free_speed_ms) net.Roadnet.links
      else Array.copy st.speeds.(p - 1)
    in
    let volumes = ref (Array.make (Roadnet.n_links net) 0.0) in
    for it = 0 to 2 do
      let v = assign_period net od ~hour:p ~speeds in
      (* method of successive averages *)
      let w = 1.0 /. float_of_int (it + 1) in
      Array.iteri
        (fun i vi -> !volumes.(i) <- ((1.0 -. w) *. !volumes.(i)) +. (w *. vi))
        v;
      Array.iteri
        (fun i l ->
          speeds.(i) <- Roadnet.bpr_speed l ~volume_vph:!volumes.(i))
        net.Roadnet.links
    done;
    st.speeds.(p) <- speeds;
    st.volumes.(p) <- !volumes
  done;
  st

let speed st ~period ~link = st.speeds.(period mod st.periods).(link)

let travel_time st ~period ~link =
  let l = Roadnet.link st.net link in
  l.Roadnet.length_m /. speed st ~period ~link

let mean_network_speed st ~period =
  let s = st.speeds.(period mod st.periods) in
  Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s)

(* congestion: ratio of links below half their free speed *)
let congested_fraction st ~period =
  let s = st.speeds.(period mod st.periods) in
  let n = Array.length s in
  let k = ref 0 in
  Array.iteri
    (fun i sp ->
      if sp < 0.5 *. (Roadnet.link st.net i).Roadnet.free_speed_ms then incr k)
    s;
  float_of_int !k /. float_of_int n
