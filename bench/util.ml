(* Table printing and Bechamel wrappers shared by the experiments. *)

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

let row fmt = Printf.printf fmt

(* Render a simple aligned table. *)
let table ~cols rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w r -> max w (String.length (List.nth r i)))
          (String.length c) rows)
      cols
  in
  let print_row cells =
    List.iteri
      (fun i c -> Printf.printf "%-*s  " (List.nth widths i) c)
      cells;
    print_newline ()
  in
  print_row cols;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Write an experiment's JSON record: [BENCH_<id>.json] for the full
   sweep, [BENCH_<id>.quick.json] for a --quick one, so a smoke run never
   overwrites the committed full-scale record.  Returns the file name. *)
let write_record ~id ~quick json =
  let file = Printf.sprintf "BENCH_%s%s.json" id (if quick then ".quick" else "") in
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  file

let f2 x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
let e2 x = Printf.sprintf "%.2e" x
let si x =
  if x >= 1e9 then Printf.sprintf "%.2fG" (x /. 1e9)
  else if x >= 1e6 then Printf.sprintf "%.2fM" (x /. 1e6)
  else if x >= 1e3 then Printf.sprintf "%.2fk" (x /. 1e3)
  else Printf.sprintf "%.1f" x

let time_str s =
  if s < 1e-6 then Printf.sprintf "%.1f ns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1f us" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.2f s" s

(* ---- Bechamel ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* Run the tests and return (name, ns/run) pairs. *)
let run_benchmarks ?(quota = 0.5) (tests : Test.t list) =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      List.filter_map
        (fun (name, raw) ->
          let ols =
            Analyze.OLS.ols ~r_square:false ~responder:"monotonic-clock"
              ~predictors:[| "run" |] raw.Benchmark.lr
          in
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Some (name, t)
          | _ -> None)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []))
    tests
  |> List.sort compare

let print_benchmarks ?(quota = 0.5) title tests =
  header title;
  let rows =
    List.map
      (fun (name, ns) ->
        [ name; Printf.sprintf "%.1f" ns; time_str (ns /. 1e9) ])
      (run_benchmarks ~quota tests)
  in
  table ~cols:[ "benchmark"; "ns/run"; "per-run" ] rows
