(* Floating car data: vehicles traverse routes through the simulated city
   and report (link, speed) roughly every 5 seconds — the Sygic-style data
   feed of §VI-C. *)

open Everest_ml

type ping = {
  vehicle : int;
  time_s : float;
  link : int;
  speed_ms : float;
}

(* Seconds between two pings of one vehicle. *)
let report_every_s = 5.0

(* Generate pings for [n_vehicles] random O/D trips departing uniformly over
   [periods] hours. *)
let generate (st : Simulator.state) ~n_vehicles : ping list =
  let rng = Rng.create 31 in
  let net = st.Simulator.net in
  let pings = ref [] in
  for v = 0 to n_vehicles - 1 do
    let src = Rng.int rng net.Roadnet.n_nodes in
    let dst = Rng.int rng net.Roadnet.n_nodes in
    if src <> dst then begin
      let depart_hour = Rng.int rng st.Simulator.periods in
      let depart = float_of_int depart_hour *. 3600.0 in
      let cost (l : Roadnet.link) =
        Simulator.travel_time st ~period:depart_hour ~link:l.Roadnet.link_id
      in
      match Routing.shortest net ~cost ~src ~dst with
      | None -> ()
      | Some p ->
          let t = ref depart in
          List.iter
            (fun lid ->
              let period = int_of_float (!t /. 3600.0) mod st.Simulator.periods in
              let true_speed = Simulator.speed st ~period ~link:lid in
              let dt = (Roadnet.link net lid).Roadnet.length_m /. true_speed in
              (* emit pings along the link *)
              let k = max 1 (int_of_float (dt /. report_every_s)) in
              for i = 0 to k - 1 do
                let noisy =
                  Float.max 0.5 (true_speed +. Rng.gaussian ~sigma:1.0 rng)
                in
                pings :=
                  { vehicle = v;
                    time_s = !t +. (float_of_int i *. report_every_s);
                    link = lid; speed_ms = noisy }
                  :: !pings
              done;
              t := !t +. dt)
            p.Routing.links
    end
  done;
  List.rev !pings

let count = List.length

let bytes_per_ping = 24  (* id + timestamp + position + speed *)

let total_bytes pings = bytes_per_ping * count pings
