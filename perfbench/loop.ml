(* The closed loop shared by the in-process workloads: run rounds
   of fixed work until the time budget is spent, timing each round's wall
   and CPU; a traced run splits the budget into an untraced and a traced
   half and attributes the traced half to layers. *)

open Anyseq
open Common

type sample = { wall : float; cpu_s : float; ops : int; cells : float }

(* Rounds run in every closed loop, however short its budget. *)
let min_rounds = 3

(* [round ()] does one unit of work and returns (ops, cells); [between]
   runs untimed after each round (correctness checks, span draining). *)
let closed ~between ~budget round =
  let t_end = now () +. budget in
  let out = ref [] in
  let n = ref 0 in
  while !n < min_rounds || now () < t_end do
    let c0 = cpu () and t0 = now () in
    let ops, cells = Trace.with_span "bench.round" round in
    let wall = now () -. t0 and c = cpu () -. c0 in
    out := { wall; cpu_s = c; ops; cells } :: !out;
    between ();
    incr n
  done;
  Array.of_list (List.rev !out)

let total_ops samples = Array.fold_left (fun a s -> a + s.ops) 0 samples
let throughput samples = ratio (fi (total_ops samples)) (sum (Array.map (fun s -> s.wall) samples))

(* One timed set-up, made before the workload runs; its result is the
   one the workload uses. *)
let setup_once make =
  let t0 = now () in
  let r = Trace.with_span "bench.setup" make in
  (r, now () -. t0)

(* The reported set-up time: the median of the [first] set-up and
   [reps - 1] more, made after the workload and torn down with [release],
   so that their garbage stays out of the run's peak heap. *)
let setup_median ~reps ~release ~first make =
  let again () =
    let r, t = setup_once make in
    release r;
    t
  in
  median (Array.of_list (first :: List.init (reps - 1) (fun _ -> again ())))

(* The end-to-end block of a closed-loop workload whose rounds are the
   user-visible operation (a batch, a pipeline run). *)
let end_to_end sink ~setup_s ~samples ~words ~heap_mb ~ops =
  put sink "setup_s" "s" setup_s;
  put sink "gcups" "GCUPS" (median (Array.map (fun s -> s.cells /. s.wall /. 1e9) samples));
  put sink "pairs_per_s" "1/s" (median (Array.map (fun s -> fi s.ops /. s.wall) samples));
  put sink "cpu_s" "s" (median (Array.map (fun s -> s.cpu_s) samples));
  let lat = Array.map (fun s -> s.wall *. 1e3) samples in
  put sink "p50_ms" "ms" (median lat);
  put sink "minor_words_per_op" "words" (ratio words (fi ops));
  put sink "heap_mb" "MB" heap_mb

(* A traced run: untraced half, traced half (spans drained between
   rounds, so the ring never wraps), then the runtime layer block and the
   trace bookkeeping. Returns the traced spans for workload-specific
   attribution. *)
let traced sink ~svc ~budget ~between round =
  let untraced = closed ~between ~budget:(budget /. 2.0) round in
  let a = Layers.snap svc in
  let acc = trace_acc () in
  Trace.enable ();
  let traced =
    closed ~budget:(budget /. 2.0)
      ~between:(fun () ->
        drain acc;
        between ())
      round
  in
  Trace.disable ();
  drain acc;
  let b = Layers.snap svc in
  Layers.runtime sink ~spans:acc.spans ~a ~b ~rounds:(Array.length traced);
  put sink "trace.overhead_frac" "ratio" (ratio (throughput traced) (throughput untraced));
  put sink "unattributed_frac" "frac"
    (unattributed acc.spans ~wall:(sum (Array.map (fun s -> s.wall) traced)));
  (acc, traced)
