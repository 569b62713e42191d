(* Particle abstraction (the second EVEREST data-centric DSL, §III-B:
   "Tensors and particles are two examples of EVEREST data-centric
   programming abstractions").

   A particle system holds N particles with named float attributes
   (position, velocity, charge, ...).  Kernels are per-particle maps or
   cutoff-limited pairwise interactions.  The same system can be laid out
   as array-of-structures (AoS) or structure-of-arrays (SoA); the layout
   changes memory behaviour, not semantics — exactly the software-variant
   axis the paper's middle-end explores ("a software-only implementation
   could explore layouts of particles as array-of-structures or
   structure-of-arrays"). *)

type layout = Aos | Soa

type system = {
  n : int;
  attrs : string list;  (* attribute order defines AoS field order *)
  layout : layout;
  data : float array;  (* n * |attrs| floats *)
}

let n_attrs s = List.length s.attrs

let attr_index s name =
  let rec go i = function
    | [] -> invalid_arg ("particles: unknown attribute " ^ name)
    | a :: _ when String.equal a name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 s.attrs

let create ?(layout = Aos) ~n attrs =
  if n <= 0 then invalid_arg "particles: n must be positive";
  if attrs = [] then invalid_arg "particles: need at least one attribute";
  { n; attrs; layout; data = Array.make (n * List.length attrs) 0.0 }

let idx s p a =
  match s.layout with
  | Aos -> (p * n_attrs s) + a
  | Soa -> (a * s.n) + p

let get s p name = s.data.(idx s p (attr_index s name))
let set s p name v = s.data.(idx s p (attr_index s name)) <- v

(* Convert between layouts (same logical contents). *)
let with_layout s layout =
  if s.layout = layout then s
  else begin
    let out = { s with layout; data = Array.make (Array.length s.data) 0.0 } in
    for p = 0 to s.n - 1 do
      for a = 0 to n_attrs s - 1 do
        out.data.(idx out p a) <- s.data.(idx s p a)
      done
    done;
    out
  end

let equal_contents a b =
  a.n = b.n && a.attrs = b.attrs
  &&
  let ok = ref true in
  for p = 0 to a.n - 1 do
    for k = 0 to n_attrs a - 1 do
      if Float.abs (a.data.(idx a p k) -. b.data.(idx b p k)) > 1e-12 then
        ok := false
    done
  done;
  !ok

(* ---- kernels ------------------------------------------------------------------ *)

(* Per-particle map over a subset of attributes: [f] receives the current
   values (in [reads] order) and returns new values (in [writes] order). *)
let map_kernel s ~reads ~writes f =
  let ri = List.map (attr_index s) reads in
  let wi = List.map (attr_index s) writes in
  for p = 0 to s.n - 1 do
    let inputs = List.map (fun a -> s.data.(idx s p a)) ri in
    let outputs = f inputs in
    List.iter2 (fun a v -> s.data.(idx s p a) <- v) wi outputs
  done

(* Cutoff-limited pairwise interaction on positions (x, y): for every pair
   within [cutoff], [f dx dy dist2] returns the force magnitude pair added
   to (fx, fy) of the first particle (symmetrically subtracted from the
   second).  O(n^2) reference implementation. *)
let pairwise_kernel s ~cutoff f =
  let xi = attr_index s "x" and yi = attr_index s "y" in
  let fxi = attr_index s "fx" and fyi = attr_index s "fy" in
  let c2 = cutoff *. cutoff in
  let interactions = ref 0 in
  for p = 0 to s.n - 1 do
    for q = p + 1 to s.n - 1 do
      let dx = s.data.(idx s q xi) -. s.data.(idx s p xi) in
      let dy = s.data.(idx s q yi) -. s.data.(idx s p yi) in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 <= c2 && d2 > 0.0 then begin
        incr interactions;
        let gx, gy = f dx dy d2 in
        s.data.(idx s p fxi) <- s.data.(idx s p fxi) +. gx;
        s.data.(idx s p fyi) <- s.data.(idx s p fyi) +. gy;
        s.data.(idx s q fxi) <- s.data.(idx s q fxi) -. gx;
        s.data.(idx s q fyi) <- s.data.(idx s q fyi) -. gy
      end
    done
  done;
  !interactions

(* ---- cost model ---------------------------------------------------------------- *)

(* Bytes touched by a map kernel reading [reads] and writing [writes]
   attributes.  AoS drags whole records through the cache when only a few
   fields are touched; SoA streams exactly the used fields. *)
let map_traffic_bytes s ~reads ~writes =
  let line = 64 in
  let fields = List.length reads + List.length writes in
  match s.layout with
  | Soa -> 8 * s.n * fields
  | Aos ->
      (* each particle touch loads ceil(record/line) cache lines *)
      let record = 8 * n_attrs s in
      let lines = (record + line - 1) / line in
      s.n * lines * line

(* Relative speedup of SoA over AoS for a map kernel (memory-bound). *)
let soa_speedup s ~reads ~writes =
  let aos = map_traffic_bytes { s with layout = Aos } ~reads ~writes in
  let soa = map_traffic_bytes { s with layout = Soa } ~reads ~writes in
  float_of_int aos /. float_of_int soa

(* Recommend a layout: SoA when kernels touch a minority of fields. *)
let recommend_layout s ~reads ~writes =
  if soa_speedup s ~reads ~writes > 1.1 then Soa else Aos

(* ---- a small reference simulation ----------------------------------------------- *)

(* Leapfrog step (dt = 0.01) of a 2-D short-range force field; used by
   tests and the bench as the particle workload. *)
let step s ~cutoff ~force =
  let dt = 0.01 in
  (* zero forces *)
  map_kernel s ~reads:[] ~writes:[ "fx"; "fy" ] (fun _ -> [ 0.0; 0.0 ]);
  let inter = pairwise_kernel s ~cutoff force in
  map_kernel s ~reads:[ "x"; "y"; "vx"; "vy"; "fx"; "fy" ]
    ~writes:[ "x"; "y"; "vx"; "vy" ]
    (fun vals ->
      match vals with
      | [ x; y; vx; vy; fx; fy ] ->
          let vx = vx +. (dt *. fx) and vy = vy +. (dt *. fy) in
          [ x +. (dt *. vx); y +. (dt *. vy); vx; vy ]
      | _ -> assert false);
  inter

let standard_attrs = [ "x"; "y"; "vx"; "vy"; "fx"; "fy"; "charge"; "mass" ]

let random_system ?(seed = 5) ?(layout = Aos) ~n ~box () =
  let rng = Everest_ml.Rng.create seed in
  let s = create ~layout ~n standard_attrs in
  for p = 0 to n - 1 do
    set s p "x" (Everest_ml.Rng.uniform rng 0.0 box);
    set s p "y" (Everest_ml.Rng.uniform rng 0.0 box);
    set s p "vx" (Everest_ml.Rng.gaussian ~sigma:0.1 rng);
    set s p "vy" (Everest_ml.Rng.gaussian ~sigma:0.1 rng);
    set s p "charge" (if Everest_ml.Rng.float rng < 0.5 then -1.0 else 1.0);
    set s p "mass" 1.0
  done;
  s
