(* Runtime anomaly monitors and the auto-protection policy.

   "Dedicated hardware monitors will detect anomalies with respect to the
   expected data behaviors (timing patterns, access patterns, typical sizes
   and ranges), activating proper dynamic adaptation in the form of
   auto-protection" (paper §III-B).

   Each monitor learns a baseline during a training phase and then flags
   observations that deviate.  The policy maps fired monitors to protection
   actions the runtime executes. *)

type verdict = Normal | Anomalous of string

(* ---- Welford running statistics -------------------------------------------- *)

type stats = { mutable n : int; mutable mean : float; mutable m2 : float }

let stats () = { n = 0; mean = 0.0; m2 = 0.0 }

let observe s x =
  s.n <- s.n + 1;
  let d = x -. s.mean in
  s.mean <- s.mean +. (d /. float_of_int s.n);
  s.m2 <- s.m2 +. (d *. (x -. s.mean))

let variance s = if s.n < 2 then 0.0 else s.m2 /. float_of_int (s.n - 1)
let stddev s = sqrt (variance s)

(* ---- timing monitor ---------------------------------------------------------- *)

type timing_monitor = {
  t_stats : stats;
  t_threshold_sigma : float;
  mutable t_trained : bool;
}

let timing ?(threshold_sigma = 4.0) () =
  { t_stats = stats (); t_threshold_sigma = threshold_sigma; t_trained = false }

let timing_train m sample = observe m.t_stats sample

let timing_finalize m = m.t_trained <- true

let timing_check m sample =
  if not m.t_trained then (timing_train m sample; Normal)
  else
    let sd = stddev m.t_stats in
    let sd = if sd <= 0.0 then Float.max 1e-9 (0.05 *. Float.abs m.t_stats.mean) else sd in
    let z = Float.abs (sample -. m.t_stats.mean) /. sd in
    if z > m.t_threshold_sigma then
      Anomalous (Printf.sprintf "timing z=%.1f (mean %.3g, sd %.3g)" z m.t_stats.mean sd)
    else Normal

(* ---- value-range monitor ------------------------------------------------------ *)

type range_monitor = {
  mutable lo : float;
  mutable hi : float;
  margin : float;  (* relative slack added around the trained range *)
  mutable r_trained : bool;
}

let range () = { lo = infinity; hi = neg_infinity; margin = 0.10; r_trained = false }

let range_train m x =
  if x < m.lo then m.lo <- x;
  if x > m.hi then m.hi <- x

let range_finalize m = m.r_trained <- true

let range_check m x =
  if not m.r_trained then (range_train m x; Normal)
  else
    let span = Float.max 1e-12 (m.hi -. m.lo) in
    let lo = m.lo -. (m.margin *. span) and hi = m.hi +. (m.margin *. span) in
    if x < lo || x > hi then
      Anomalous (Printf.sprintf "value %.3g outside [%.3g, %.3g]" x lo hi)
    else Normal

(* ---- access-pattern monitor ----------------------------------------------------- *)

(* Learns the distribution of address strides; flags bursts of strides never
   seen in training (e.g. a scanning attack or buffer overflow sweep). *)
type access_monitor = {
  known_strides : (int, int) Hashtbl.t;
  burst_threshold : int;
  mutable last_addr : int option;
  mutable novel_run : int;
  mutable a_trained : bool;
}

let access ?(burst_threshold = 8) () =
  { known_strides = Hashtbl.create 16; burst_threshold; last_addr = None;
    novel_run = 0; a_trained = false }

let access_observe m addr =
  let stride = match m.last_addr with Some a -> addr - a | None -> 0 in
  m.last_addr <- Some addr;
  stride

let access_train m addr =
  let s = access_observe m addr in
  Hashtbl.replace m.known_strides s
    (1 + Option.value ~default:0 (Hashtbl.find_opt m.known_strides s))

let access_finalize m =
  m.a_trained <- true;
  m.last_addr <- None

let access_check m addr =
  if not m.a_trained then (access_train m addr; Normal)
  else begin
    let s = access_observe m addr in
    if Hashtbl.mem m.known_strides s then begin
      m.novel_run <- 0;
      Normal
    end
    else begin
      m.novel_run <- m.novel_run + 1;
      if m.novel_run >= m.burst_threshold then
        Anomalous (Printf.sprintf "burst of %d novel strides (last %d)" m.novel_run s)
      else Normal
    end
  end

(* ---- size monitor ----------------------------------------------------------------- *)

type size_monitor = { s_stats : stats; factor : float; mutable s_trained : bool }

let size () = { s_stats = stats (); factor = 3.0; s_trained = false }
let size_train m b = observe m.s_stats (float_of_int b)
let size_finalize m = m.s_trained <- true

let size_check m b =
  if not m.s_trained then (size_train m b; Normal)
  else
    let x = float_of_int b in
    if x > m.s_stats.mean *. m.factor && x > m.s_stats.mean +. 1.0 then
      Anomalous (Printf.sprintf "size %d >> typical %.0f" b m.s_stats.mean)
    else Normal

(* ---- auto-protection policy --------------------------------------------------------- *)

type action =
  | Raise_alert
  | Enable_encryption
  | Quarantine_source  (* stop accepting data from the stream *)
  | Switch_variant of string  (* fall back to a hardened code variant *)
  | Throttle of float  (* admission rate limit *)

type event = { monitor : string; reason : string; severity : int }

let classify_event (monitor : string) reason =
  let severity =
    match monitor with
    | "access" -> 3  (* pattern scanning: likely an attack *)
    | "timing" -> 2  (* possible side-channel probe or contention *)
    | "range" -> 2
    | _ -> 1
  in
  { monitor; reason; severity }

let policy (e : event) : action list =
  match e.severity with
  | s when s >= 3 -> [ Raise_alert; Quarantine_source; Switch_variant "hardened" ]
  | 2 -> [ Raise_alert; Enable_encryption ]
  | _ -> [ Raise_alert; Throttle 0.5 ]
