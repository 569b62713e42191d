(* Online change detection over a scalar sample stream: a two-sided
   CUSUM on a frozen baseline.

   The first [warmup] samples estimate the baseline mean and standard
   deviation (Welford), the baseline is frozen at warmup end, and
   detection then scores each sample against it.  Working in
   baseline-sigma units makes the knobs scale-free: the same (drift,
   threshold) works on a 4 ms latency series and a 40% utilization
   series.  A zero-variance baseline (constant series) gets a tiny sigma
   floor, so an exactly constant stream can never alarm while any real
   step still registers as a huge z-score.

   Two one-sided cumulative sums with allowance [drift]·sigma alarm when
   either exceeds [threshold]·sigma.  They integrate small sustained
   shifts a band test misses and keep alarming while the shift persists.

   A detector only scores: [step] says whether this sample is out of
   bounds.  Firing and rising edges belong to the alert that reads it
   ([Rules], through [Everest_observe.Alarm]). *)

let warmup = 8

type t = {
  drift : float;
  threshold : float;
  mutable n : int;  (* samples seen *)
  (* Welford accumulation during warmup *)
  mutable wmean : float;
  mutable wm2 : float;
  (* frozen baseline *)
  mutable mean0 : float;
  mutable sigma0 : float;
  mutable g_up : float;
  mutable g_down : float;
}

let cusum ?(drift = 0.5) ?(threshold = 5.0) () =
  { drift; threshold; n = 0; wmean = 0.0; wm2 = 0.0; mean0 = 0.0; sigma0 = 0.0;
    g_up = 0.0; g_down = 0.0 }

(* Floor keeps a zero-variance baseline from dividing by zero while
   staying far below any real signal's dispersion: an exactly constant
   series scores z = 0 forever, and any genuine step scores astronomically. *)
let sigma_floor mean0 sigma0 =
  Float.max sigma0 (1e-12 +. (1e-9 *. Float.abs mean0))

let step d x =
  d.n <- d.n + 1;
  if d.n <= warmup then begin
    (* Welford update *)
    let delta = x -. d.wmean in
    d.wmean <- d.wmean +. (delta /. float_of_int d.n);
    d.wm2 <- d.wm2 +. (delta *. (x -. d.wmean));
    if d.n = warmup then begin
      d.mean0 <- d.wmean;
      d.sigma0 <- sqrt (Float.max 0.0 (d.wm2 /. float_of_int (warmup - 1)))
    end;
    false
  end
  else begin
    let z = (x -. d.mean0) /. sigma_floor d.mean0 d.sigma0 in
    d.g_up <- Float.max 0.0 (d.g_up +. z -. d.drift);
    d.g_down <- Float.max 0.0 (d.g_down -. z -. d.drift);
    d.g_up > d.threshold || d.g_down > d.threshold
  end
