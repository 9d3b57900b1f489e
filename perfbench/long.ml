(* Workload [long]: mutated genome pairs, each above the Service's 4 M-cell
   wavefront escalation threshold, run one job at a time through a
   two-shard Service with two wavefront domains and the Auto backend.
   Each score-only configuration gets two 2.5 kbp pairs: the speed of a
   pair depends on its content, and two pairs halve what one seed's
   content can move a round. *)

open Anyseq
open Common

type job = {
  name : string;
  cfg : Config.t;
  q : Sequence.t;
  s : Sequence.t;
  cap : int option;
  expect : [ `Ends of Types.ends | `Cutoff ];
}

let jobs seed =
  let rng = Anyseq_util.Rng.create ~seed in
  let pair () =
    let a = Genome_gen.generate rng ~len:2500 () in
    (a, Genome_gen.mutate rng a)
  in
  let reference cfg q s =
    Dp_linear.score_only cfg.Config.scheme cfg.Config.mode ~query:(Sequence.view q)
      ~subject:(Sequence.view s)
  in
  let make name ?(traceback = false) scheme mode =
    let cfg = Config.make ~scheme ~mode ~traceback () in
    let q, s = pair () in
    { name; cfg; q; s; cap = None; expect = `Ends (reference cfg q s) }
  in
  let modes = [ ("global", Types.Global); ("semiglobal", Types.Semiglobal); ("local", Types.Local) ] in
  let scored =
    List.concat_map
      (fun (gname, scheme) ->
        List.concat_map
          (fun (mname, mode) ->
            List.map (fun k -> make (Printf.sprintf "%s-%s-%d" mname gname k) scheme mode) [ 1; 2 ])
          modes)
      [ ("linear", Scheme.paper_linear); ("affine", Scheme.paper_affine) ]
  in
  let tb = make "traceback-affine" ~traceback:true Scheme.paper_affine Types.Global in
  (* unit-cost pairs with an edit-distance cap: one generous (resolved by
     the banded kernel), one at half the true distance (cut off) *)
  let capped name frac =
    let cfg = Config.make ~scheme:Scheme.unit_cost ~mode:Types.Global ~traceback:false () in
    let q, s = pair () in
    let e = reference cfg q s in
    let dist = -e.Types.score in
    let cap = if frac >= 1.0 then dist + 64 else int_of_float (frac *. fi dist) in
    { name; cfg; q; s; cap = Some cap; expect = (if cap >= dist then `Ends e else `Cutoff) }
  in
  Array.of_list (scored @ [ tb; capped "unit-banded" 1.0; capped "unit-cutoff" 0.5 ])

(* Scores must equal the reference. End cells are compared only where
   they are unique (global mode): among co-optimal semiglobal or local
   ends the wavefront tier may report another one than Dp_linear. *)
let correct j (r : (Service.outcome, Error.t) result) =
  match (j.expect, r) with
  | `Cutoff, Error Error.Cutoff -> true
  | `Ends e, Ok o ->
      o.Service.score = e.Types.score
      && (j.cfg.Config.mode <> Types.Global
         || o.Service.query_end = e.Types.query_end && o.Service.subject_end = e.Types.subject_end)
      && (match o.Service.alignment with
         | None -> not j.cfg.Config.traceback
         | Some a ->
             let sc = j.cfg.Config.scheme in
             Alignment.rescore ~subst:sc.Scheme.subst ~gap:sc.Scheme.gap ~query:j.q ~subject:j.s a
             = Ok o.Service.score
             && Cigar.query_consumed a.Alignment.cigar = Sequence.length j.q
             && Cigar.subject_consumed a.Alignment.cigar = Sequence.length j.s)
  | _ -> false

let run ~seed ~seconds ~trace sink tally =
  let jobs = jobs seed in
  inputs_digest := digest (Array.to_list (Array.map (fun j -> Sequence.to_string j.q ^ "/" ^ Sequence.to_string j.s) jobs));
  let sjobs =
    Array.map
      (fun j ->
        Service.job ~config:j.cfg ?max_dist:j.cap ~query:(Sequence.to_string j.q)
          ~subject:(Sequence.to_string j.s) ())
      jobs
  in
  (* set-up: service creation, domain spawn and one job per configuration
     on the first 400 bp of its pair; the median of fifteen (see
     [Loop.setup_median]). With tiny warm-up jobs set-up was the few
     hundred microseconds of domain start-up, which the host's steal time
     moved by a third between sets of runs; a warm-up on the whole pairs
     leaves garbage whose collection timing moved the peak heap by a
     third. *)
  let warm =
    let head s = Sequence.to_string (Sequence.sub s ~pos:0 ~len:400) in
    Array.map (fun j -> Service.job ~config:j.cfg ?max_dist:j.cap ~query:(head j.q) ~subject:(head j.s) ()) jobs
  in
  let make () =
    let svc = Service.create ~shards:2 ~domains () in
    ignore (Service.run svc warm);
    svc
  in
  let svc, first = Loop.setup_once make in
  let results = ref [||] in
  let round () =
    results := Array.map (fun sj -> (Service.await (Service.submit svc [| sj |])).(0)) sjobs;
    let cells =
      Array.fold_left ( + ) 0
        (Array.map2 (fun j r -> if Result.is_ok r then seq_cells j.q j.s else 0) jobs !results)
    in
    (Array.length jobs, fi cells)
  in
  let between () =
    record_outputs (Array.to_list (Array.map outcome_key !results));
    Array.iteri (fun i r -> check tally (correct jobs.(i) r) ("long: " ^ jobs.(i).name)) !results
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
    let k j = { Layers.scheme = j.cfg.Config.scheme; mode = j.cfg.Config.mode; q = j.q; s = j.s; cap = j.cap } in
    let pick f = Array.to_list jobs |> List.filter f |> List.map k in
    let local j = j.cfg.Config.mode = Types.Local in
    (* native and wavefront on the same local-mode pairs: the gap between
       the two is the cost of escalating a local pair *)
    Layers.kernels sink ~native:(pick local)
      ~myers:(pick (fun j -> j.cap <> None))
      ~banded:(pick (fun j -> j.cap <> None))
      ~traceback:(pick (fun j -> j.cfg.Config.traceback))
      ~wavefront:(pick local);
    Layers.zeros sink (Layers.serve_zeros @ Layers.network_zeros)
  end;
  Service.shutdown svc
