(* Workload [reads]: 150 bp simulated read pairs in closed-loop batches
   through one two-shard Service, rotating over mixed configurations. *)

open Anyseq
open Common

(* 504 = 56 x 9: every batch holds the same configuration mix *)
let batch = 504
let count = 2016

(* Six score-only configurations, the unit-cost (Myers) one, and two
   affine traceback ones; pair [i] always runs configuration [i mod 9]. *)
let configs =
  let score scheme mode = Config.make ~scheme ~mode ~traceback:false () in
  let tb mode = Config.make ~scheme:Scheme.paper_affine ~mode ~traceback:true () in
  [|
    score Scheme.paper_linear Types.Global;
    score Scheme.paper_linear Types.Semiglobal;
    score Scheme.paper_linear Types.Local;
    score Scheme.paper_affine Types.Global;
    score Scheme.paper_affine Types.Semiglobal;
    score Scheme.paper_affine Types.Local;
    score Scheme.unit_cost Types.Global;
    tb Types.Global;
    tb Types.Local;
  |]

type input = { cfg : Config.t; q : Sequence.t; s : Sequence.t; expect : Types.ends }

let inputs seed =
  Read_sim.read_pairs ~seed ~reference_len:200_000 ~read_len:150 ~count
  |> Array.mapi (fun i (q, s) ->
         let cfg = configs.(i mod Array.length configs) in
         let expect =
           Dp_linear.score_only cfg.Config.scheme cfg.Config.mode ~query:(Sequence.view q)
             ~subject:(Sequence.view s)
         in
         { cfg; q; s; expect })

(* The outcome must match the linear-space reference exactly; a
   traceback must also rescore to its score and consume what its
   coordinates claim (both sequences entirely, for global). *)
let correct inp (r : (Service.outcome, Error.t) result) =
  match r with
  | Error _ -> false
  | Ok o ->
      o.Service.score = inp.expect.Types.score
      && o.Service.query_end = inp.expect.Types.query_end
      && o.Service.subject_end = inp.expect.Types.subject_end
      && (match (inp.cfg.Config.traceback, o.Service.alignment) with
         | false, None -> true
         | true, Some a ->
             let sc = inp.cfg.Config.scheme in
             Alignment.rescore ~subst:sc.Scheme.subst ~gap:sc.Scheme.gap ~query:inp.q
               ~subject:inp.s a
             = Ok a.Alignment.score
             && a.Alignment.score = o.Service.score
             && (inp.cfg.Config.mode <> Types.Global
                || Cigar.query_consumed a.Alignment.cigar = Sequence.length inp.q
                   && Cigar.subject_consumed a.Alignment.cigar = Sequence.length inp.s)
         | _ -> false)

let run ~seed ~seconds ~trace sink tally =
  let inputs = inputs seed in
  inputs_digest := digest (Array.to_list (Array.map (fun x -> Sequence.to_string x.q ^ "/" ^ Sequence.to_string x.s) inputs));
  (* windows of [batch] consecutive pairs, rotating through the input *)
  let windows =
    Array.init (count / batch) (fun w ->
        let idx = Array.init batch (fun k -> (w * batch) + k) in
        let jobs =
          Array.map
            (fun i ->
              let x = inputs.(i) in
              Service.job ~config:x.cfg ~query:(Sequence.to_string x.q)
                ~subject:(Sequence.to_string x.s) ())
            idx
        in
        let cells = Array.fold_left (fun a i -> a + seq_cells inputs.(i).q inputs.(i).s) 0 idx in
        (idx, jobs, fi cells))
  in
  (* set-up: service creation, domain spawn and one warm-up batch (the
     first window), which fills every shard's spec-cache replica and
     workspace pool; the median of fifteen (see [Loop.setup_median]) *)
  let _, warm, _ = windows.(0) in
  let make () =
    let svc = Service.create ~shards:2 () in
    ignore (Service.run svc warm);
    svc
  in
  let svc, first = Loop.setup_once make in
  let next = ref 0 and last = ref ([||], [||]) in
  let round () =
    let idx, jobs, cells = windows.(!next mod Array.length windows) in
    incr next;
    let t = Service.submit svc jobs in
    let res = Trace.with_span "bench.await" (fun () -> Service.await t) in
    last := (idx, res);
    (Array.length jobs, cells)
  in
  let between () =
    let idx, res = !last in
    record_outputs (Array.to_list (Array.map outcome_key res));
    Array.iteri (fun k i -> check tally (correct inputs.(i) res.(k)) "reads: outcome differs from Dp_linear") idx
  in
  if not trace then begin
    let w0 = minor_words () in
    let samples = Loop.closed ~between ~budget:seconds round in
    let words = minor_words () -. w0 and heap_mb = heap_mb () in
    let setup_s = Loop.setup_median ~reps:15 ~release:Service.shutdown ~first make in
    Loop.end_to_end sink ~setup_s ~samples ~words ~heap_mb ~ops:(Loop.total_ops samples)
  end
  else begin
    let setup_dropped = Layers.cache_build sink (fun () -> Service.shutdown (make ())) in
    let acc, _ = Loop.traced sink ~svc ~budget:seconds ~between round in
    put sink "trace.dropped" "count" (fi (acc.dropped + setup_dropped));
    let k i = let x = inputs.(i) in
      { Layers.scheme = x.cfg.Config.scheme; mode = x.cfg.Config.mode; q = x.q; s = x.s; cap = None } in
    let sample pred = List.filter (fun i -> pred inputs.(i).cfg) (List.init 144 Fun.id) |> List.map k in
    let unit_cost cfg = cfg.Config.scheme == Scheme.unit_cost in
    Layers.kernels sink
      ~native:(sample (fun c -> (not c.Config.traceback) && not (unit_cost c)))
      ~myers:(sample unit_cost) ~banded:[]
      ~traceback:(sample (fun c -> c.Config.traceback))
      ~wavefront:[];
    Layers.zeros sink (Layers.serve_zeros @ Layers.network_zeros)
  end;
  Service.shutdown svc
