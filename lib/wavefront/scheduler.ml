module Tiling = Anyseq_core.Tiling
module Sequence = Anyseq_bio.Sequence
module Trace = Anyseq_trace.Trace

(* One span per tile execution, recorded in the executing domain's ring.
   Attributes identify the tile so a Chrome trace shows the wavefront
   sweep per domain lane. *)
let traced_tile ?grid ~ti ~tj compute =
  let attrs =
    let base = [ ("ti", Trace.Int ti); ("tj", Trace.Int tj) ] in
    match grid with None -> base | Some g -> ("grid", Trace.Int g) :: base
  in
  Trace.with_span "wavefront.tile" ~attrs (fun () -> compute ~ti ~tj)

let run_dynamic ?(impl = Workqueue.Locked) ~domains ~rows ~cols ~compute () =
  let graph = Tilegraph.create ~rows ~cols in
  let queue = Workqueue.create impl in
  List.iter (fun t -> Workqueue.push queue t) (Tilegraph.initial_ready graph);
  let total = Tilegraph.total graph in
  let worker _id =
    let rec loop () =
      match Workqueue.pop queue with
      | None -> ()
      | Some (ti, tj) ->
          traced_tile ~ti ~tj compute;
          let ready = Tilegraph.complete graph ~ti ~tj in
          List.iter (fun t -> Workqueue.push queue t) ready;
          if Tilegraph.completed_count graph = total then Workqueue.close queue;
          loop ()
    in
    loop ()
  in
  Domain_pool.run ~domains worker

let run_static ~domains ~rows ~cols ~compute () =
  for d = 0 to rows + cols - 2 do
    let lo = max 0 (d - cols + 1) and hi = min (rows - 1) d in
    let tiles = List.init (hi - lo + 1) (fun k -> (lo + k, d - lo - k)) in
    let tiles = Array.of_list tiles in
    (* Round-robin static assignment; the Domain_pool.run join is the
       barrier between diagonals. *)
    Domain_pool.run ~domains (fun id ->
        let k = ref id in
        while !k < Array.length tiles do
          let ti, tj = tiles.(!k) in
          traced_tile ~ti ~tj compute;
          k := !k + domains
        done)
  done

let run_dynamic_many ?(impl = Workqueue.Locked) ~domains ~grids ~compute () =
  let graphs =
    Array.map (fun (rows, cols) -> Tilegraph.create ~rows ~cols) grids
  in
  let total = Array.fold_left (fun acc g -> acc + Tilegraph.total g) 0 graphs in
  let completed = Atomic.make 0 in
  let queue = Workqueue.create impl in
  Array.iteri
    (fun gi graph ->
      List.iter (fun (ti, tj) -> Workqueue.push queue (gi, ti, tj)) (Tilegraph.initial_ready graph))
    graphs;
  let worker _id =
    let rec loop () =
      match Workqueue.pop queue with
      | None -> ()
      | Some (gi, ti, tj) ->
          traced_tile ~grid:gi ~ti ~tj (fun ~ti ~tj -> compute ~grid:gi ~ti ~tj);
          let ready = Tilegraph.complete graphs.(gi) ~ti ~tj in
          List.iter (fun (ti', tj') -> Workqueue.push queue (gi, ti', tj')) ready;
          if Atomic.fetch_and_add completed 1 = total - 1 then Workqueue.close queue;
          loop ()
    in
    loop ()
  in
  Domain_pool.run ~domains worker

let make_plan ?ws ?(tile = 512) scheme mode ~query ~subject =
  Tiling.create ?ws scheme mode ~tile ~query:(Sequence.view query)
    ~subject:(Sequence.view subject)

let score_parallel ?impl ?tile ~domains scheme mode ~query ~subject =
  let plan = make_plan ?tile scheme mode ~query ~subject in
  run_dynamic ?impl ~domains ~rows:(Tiling.tile_rows plan) ~cols:(Tiling.tile_cols plan)
    ~compute:(fun ~ti ~tj -> Tiling.compute_tile plan ~ti ~tj)
    ();
  Tiling.finish plan

let score_many ?impl ?ws ?tile ~domains scheme mode pairs =
  let plans =
    Array.map (fun (query, subject) -> make_plan ?ws ?tile scheme mode ~query ~subject) pairs
  in
  let grids =
    Array.map (fun plan -> (Tiling.tile_rows plan, Tiling.tile_cols plan)) plans
  in
  run_dynamic_many ?impl ~domains ~grids
    ~compute:(fun ~grid ~ti ~tj -> Tiling.compute_tile plans.(grid) ~ti ~tj)
    ();
  let ends = Array.map Tiling.finish plans in
  Array.iter Tiling.release plans;
  ends

let score_parallel_static ?tile ~domains scheme mode ~query ~subject =
  let plan = make_plan ?tile scheme mode ~query ~subject in
  run_static ~domains ~rows:(Tiling.tile_rows plan) ~cols:(Tiling.tile_cols plan)
    ~compute:(fun ~ti ~tj -> Tiling.compute_tile plan ~ti ~tj)
    ();
  Tiling.finish plan
