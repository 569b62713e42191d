(* Road networks for the intelligent-transportation use case (§VI-C).

   Directed graphs with link capacities and free-flow speeds; a grid-city
   generator produces deterministic synthetic cities of any size (the paper
   operates on cities like Vienna with thousands of vehicles daily). *)

type link = {
  link_id : int;
  src : int;
  dst : int;
  length_m : float;
  lanes : int;
  free_speed_ms : float;
  capacity_vph : float;  (* vehicles per hour *)
}

type t = {
  n_nodes : int;
  links : link array;
  out_links : int list array;  (* node -> link ids *)
}

let create ~n_nodes (links : link list) =
  let links = Array.of_list links in
  Array.iteri
    (fun i l ->
      if l.link_id <> i then invalid_arg "roadnet: link ids must be consecutive";
      if l.src < 0 || l.src >= n_nodes || l.dst < 0 || l.dst >= n_nodes then
        invalid_arg "roadnet: node out of range")
    links;
  let out_links = Array.make n_nodes [] in
  Array.iter (fun l -> out_links.(l.src) <- l.link_id :: out_links.(l.src)) links;
  Array.iteri (fun i ls -> out_links.(i) <- List.rev ls) out_links;
  { n_nodes; links; out_links }

let link g id = g.links.(id)
let n_links g = Array.length g.links

let free_flow_time l = l.length_m /. l.free_speed_ms

(* Grid city: [rows] x [cols] intersections, bidirectional streets, a faster
   "arterial" ring. *)
let grid_city ?(rows = 8) ?(cols = 8) () =
  let block_m = 400.0 in
  let node r c = (r * cols) + c in
  let links = ref [] in
  let next = ref 0 in
  let add src dst ~arterial =
    let l =
      { link_id = !next; src; dst; length_m = block_m;
        lanes = (if arterial then 2 else 1);
        free_speed_ms = (if arterial then 16.7 else 11.1);  (* 60 / 40 km/h *)
        capacity_vph = (if arterial then 1600.0 else 800.0) }
    in
    incr next;
    links := l :: !links
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let arterial_row = r = 0 || r = rows - 1 in
      let arterial_col = c = 0 || c = cols - 1 in
      if c + 1 < cols then begin
        add (node r c) (node r (c + 1)) ~arterial:arterial_row;
        add (node r (c + 1)) (node r c) ~arterial:arterial_row
      end;
      if r + 1 < rows then begin
        add (node r c) (node (r + 1) c) ~arterial:arterial_col;
        add (node (r + 1) c) (node r c) ~arterial:arterial_col
      end
    done
  done;
  create ~n_nodes:(rows * cols) (List.rev !links)

(* BPR volume-delay: travel time rises with the volume/capacity ratio. *)
let bpr_time (l : link) ~volume_vph =
  let vc = volume_vph /. (l.capacity_vph *. float_of_int l.lanes) in
  free_flow_time l *. (1.0 +. (0.15 *. (vc ** 4.0)))

let bpr_speed (l : link) ~volume_vph =
  l.length_m /. bpr_time l ~volume_vph
