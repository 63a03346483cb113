(* The repo benchmark's measuring program.  perfbench/run.py builds and
   runs it; see perfbench/README.md.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --rrs PATH

   prints the workload's metrics, one per line, and as its last line
   the JSON verdict {"correct", "attempted", "failed", "metrics"}. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let rrs = ref ""
let chrome = ref "trace.json"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME batch-zipf | serve-pipelined | serve-interactive");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S how long the run repeats its work");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ("--rrs", Arg.Set_string rrs, "PATH the rrs binary the serve workloads start");
    ("--chrome", Arg.Set_string chrome, "FILE where the traced run writes its Chrome trace");
  ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe";
  let rrs = !rrs and seed = !seed and seconds = !seconds in
  let outcome =
    match (!workload, !trace) with
    | "batch-zipf", 0 -> E2e.batch ~seed ~seconds
    | "serve-pipelined", 0 -> E2e.pipelined ~rrs ~seed ~seconds
    | "serve-interactive", 0 -> E2e.interactive ~rrs ~seed ~seconds
    | w, 1 when Gen.find w <> None ->
        Layers.run ~rrs ~seed ~chrome:!chrome (Option.get (Gen.find w))
    | w, t ->
        Printf.eprintf "bench.exe: no workload %S with --trace %d\n" w t;
        exit 2
  in
  let open Rrs_obs.Json in
  List.iter
    (fun (name, value, unit) -> Printf.printf "%-32s %14.4f %s\n" name value unit)
    outcome.E2e.metrics;
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !E2e.problems);
  print_endline
    (to_string
       (Assoc
          [
            ("correct", Bool (!E2e.problems = []));
            ("attempted", Int outcome.E2e.attempted);
            ("failed", Int outcome.E2e.failed);
            ( "metrics",
              Assoc
                (List.map
                   (fun (name, value, unit) ->
                     (name, Assoc [ ("value", Float value); ("unit", String unit) ]))
                   outcome.E2e.metrics) );
          ]))
