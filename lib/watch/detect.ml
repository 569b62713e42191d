(* Online change detection over scalar sample streams.

   All three detectors share one baseline: a warmup phase of [warmup]
   samples estimates the baseline mean and standard deviation (Welford),
   the baseline is frozen at warmup end, and detection then scores each
   sample against it.  Working in baseline-sigma units makes the knobs
   scale-free: the same (k, h) works on a 4 ms latency series and a 40%
   utilization series.  A zero-variance baseline (constant series) gets a
   tiny sigma floor, so an exactly constant stream can never alarm while
   any real step still registers as a huge z-score.

   A detector only scores: [step] says whether this sample is out of
   bounds.  Firing, hold-down and rising edges belong to the alert that
   reads it ([Rules], through [Everest_observe.Alarm]).

     - EWMA band: an exponentially weighted mean tracks the signal; alarm
       while |x - ewma| > k·sigma.  Reacts in one sample to big steps,
       stops alarming once the mean catches up — good for spikes.
     - CUSUM: two one-sided cumulative sums with allowance [drift]·sigma
       alarm when either exceeds [threshold]·sigma.  Integrates small
       sustained shifts a band test misses; keeps alarming while the
       shift persists.
     - Page–Hinkley: the classic sequential test — cumulative deviation
       from the running mean minus [delta]·sigma, alarmed when it leaves
       its historical extremum by more than [lambda]·sigma. *)

type verdict = Ok | Alarm

type core = {
  d_warmup : int;
  mutable d_n : int;  (* samples seen *)
  (* Welford accumulation during warmup *)
  mutable d_wmean : float;
  mutable d_wm2 : float;
  (* frozen baseline *)
  mutable d_mean0 : float;
  mutable d_sigma0 : float;
}

type algo =
  | Ewma of { alpha : float; k : float; mutable ewma : float }
  | Cusum of {
      drift : float;
      threshold : float;
      mutable g_up : float;
      mutable g_down : float;
    }
  | Page_hinkley of {
      delta : float;
      lambda : float;
      mutable ph_mean : float;  (* running mean over detection samples *)
      mutable ph_n : int;
      mutable u_up : float;  (* cumulative (x - mean - delta) *)
      mutable u_up_min : float;
      mutable u_down : float;  (* cumulative (x - mean + delta) *)
      mutable u_down_max : float;
    }

type t = { core : core; mutable algo : algo }

let mk_core warmup =
  if warmup < 2 then invalid_arg "Detect: warmup < 2";
  { d_warmup = warmup; d_n = 0; d_wmean = 0.0; d_wm2 = 0.0; d_mean0 = 0.0;
    d_sigma0 = 0.0 }

let ewma ?(alpha = 0.2) ?(k = 4.0) ?(warmup = 8) () =
  { core = mk_core warmup; algo = Ewma { alpha; k; ewma = 0.0 } }

let cusum ?(drift = 0.5) ?(threshold = 5.0) ?(warmup = 8) () =
  { core = mk_core warmup;
    algo = Cusum { drift; threshold; g_up = 0.0; g_down = 0.0 } }

let page_hinkley ?(delta = 0.25) ?(lambda = 8.0) ?(warmup = 8) () =
  { core = mk_core warmup;
    algo =
      Page_hinkley
        { delta; lambda; ph_mean = 0.0; ph_n = 0; u_up = 0.0; u_up_min = 0.0;
          u_down = 0.0; u_down_max = 0.0 } }

let samples d = d.core.d_n

(* Floor keeps a zero-variance baseline from dividing by zero while
   staying far below any real signal's dispersion: an exactly constant
   series scores z = 0 forever, and any genuine step scores astronomically. *)
let sigma_floor mean0 sigma0 =
  Float.max sigma0 (1e-12 +. (1e-9 *. Float.abs mean0))

let step d x =
  let c = d.core in
  c.d_n <- c.d_n + 1;
  if c.d_n <= c.d_warmup then begin
    (* Welford update *)
    let delta = x -. c.d_wmean in
    c.d_wmean <- c.d_wmean +. (delta /. float_of_int c.d_n);
    c.d_wm2 <- c.d_wm2 +. (delta *. (x -. c.d_wmean));
    if c.d_n = c.d_warmup then begin
      c.d_mean0 <- c.d_wmean;
      c.d_sigma0 <-
        sqrt (Float.max 0.0 (c.d_wm2 /. float_of_int (c.d_warmup - 1)));
      (match d.algo with
      | Ewma e -> e.ewma <- c.d_mean0
      | Cusum _ -> ()
      | Page_hinkley p -> p.ph_mean <- 0.0)
    end;
    Ok
  end
  else begin
    let sigma = sigma_floor c.d_mean0 c.d_sigma0 in
    let alarmed =
      match d.algo with
      | Ewma e ->
          let dev = Float.abs (x -. e.ewma) in
          let out = dev > e.k *. sigma in
          (* the mean keeps tracking, so a persistent shift re-centers the
             band and the alarm clears — spikes fire, new normals settle *)
          e.ewma <- e.ewma +. (e.alpha *. (x -. e.ewma));
          out
      | Cusum cu ->
          let z = (x -. c.d_mean0) /. sigma in
          cu.g_up <- Float.max 0.0 (cu.g_up +. z -. cu.drift);
          cu.g_down <- Float.max 0.0 (cu.g_down -. z -. cu.drift);
          cu.g_up > cu.threshold || cu.g_down > cu.threshold
      | Page_hinkley p ->
          p.ph_n <- p.ph_n + 1;
          p.ph_mean <- p.ph_mean +. ((x -. p.ph_mean) /. float_of_int p.ph_n);
          let dev = x -. p.ph_mean in
          p.u_up <- p.u_up +. dev -. (p.delta *. sigma);
          p.u_up_min <- Float.min p.u_up_min p.u_up;
          p.u_down <- p.u_down +. dev +. (p.delta *. sigma);
          p.u_down_max <- Float.max p.u_down_max p.u_down;
          p.u_up -. p.u_up_min > p.lambda *. sigma
          || p.u_down_max -. p.u_down > p.lambda *. sigma
    in
    if alarmed then Alarm else Ok
  end

let reset d =
  let c = d.core in
  c.d_n <- 0;
  c.d_wmean <- 0.0;
  c.d_wm2 <- 0.0;
  c.d_mean0 <- 0.0;
  c.d_sigma0 <- 0.0;
  match d.algo with
  | Ewma e -> e.ewma <- 0.0
  | Cusum cu ->
      cu.g_up <- 0.0;
      cu.g_down <- 0.0
  | Page_hinkley p ->
      p.ph_mean <- 0.0;
      p.ph_n <- 0;
      p.u_up <- 0.0;
      p.u_up_min <- 0.0;
      p.u_down <- 0.0;
      p.u_down_max <- 0.0
