(* Workload [network]: the all-vs-all similarity pipeline over a FASTA file
   of mutation-chain families, through a two-shard Service. *)

open Anyseq
open Common

let families = 20
let members = 1000
let len = 200

let params =
  { Pipeline.default_params with scheme = Scheme.unit_cost; min_ident = 0.9; top_k = 5; cutoff = true }

(* Families of [members] sequences, each a ~2%-divergence mutation of the
   previous one, cut or extended back to [len] so that indels do not
   random-walk member lengths (and the work per pair) away from [len].
   The records go straight to [path], so the benchmark holds no copy of
   the input while the program runs; returns the first [keep] sequences. *)
let write_records seed path ~keep =
  let rng = Anyseq_util.Rng.create ~seed in
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let fit s =
    let n = Sequence.length s in
    if n >= len then Sequence.sub s ~pos:0 ~len
    else Sequence.of_string Alphabet.dna4 (Sequence.to_string s ^ Sequence.to_string (Genome_gen.generate rng ~len:(len - n) ()))
  in
  let kept = ref [] in
  Out_channel.with_open_text path (fun oc ->
      for f = 0 to families - 1 do
        let prev = ref (Genome_gen.generate rng ~len ()) in
        for m = 0 to members - 1 do
          if m > 0 then prev := fit (Genome_gen.mutate rng ~divergence:div !prev);
          let s = Sequence.to_string !prev in
          if (f * members) + m < keep then kept := s :: !kept;
          Printf.fprintf oc ">fam%02d_%04d\n%s\n" f m s
        done
      done);
  Array.of_list (List.rev !kept)

(* The records of [path] that [want] selects, in file order. *)
let read_records path want =
  match Fasta.fold Alphabet.dna4 path ~init:[] ~f:(fun acc r -> if want r.Fasta.id then r :: acc else acc) with
  | Ok rs -> List.rev rs
  | Error e -> failwith ("network: " ^ e)

(* A seeded sample of edges must rescore to the score the TSV lists. *)
let check_edges tally ~seed ~fasta out =
  let lines =
    In_channel.with_open_text out In_channel.input_lines |> List.filter (fun l -> l <> "") |> Array.of_list
  in
  let rng = Anyseq_util.Rng.create ~seed:(seed + 1) in
  let sample = List.init (min 32 (Array.length lines)) (fun _ -> String.split_on_char '\t' (Anyseq_util.Rng.choose rng lines)) in
  let ids = List.concat_map (function a :: b :: _ -> [ a; b ] | _ -> []) sample in
  let by_name = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_name r.Fasta.id r.Fasta.sequence) (read_records fasta (fun id -> List.mem id ids));
  List.iter
    (fun fields ->
      let ok =
        match fields with
        | [ a; b; _; _; score ] -> (
            match (Hashtbl.find_opt by_name a, Hashtbl.find_opt by_name b) with
            | Some qa, Some qb ->
                let e =
                  Dp_linear.score_only params.Pipeline.scheme params.Pipeline.mode
                    ~query:(Sequence.view qa) ~subject:(Sequence.view qb)
                in
                string_of_int e.Types.score = score
            | _ -> false)
        | _ -> false
      in
      check tally ok "network: edge does not rescore to its listed score")
    sample;
  check tally (Array.length lines > 0) "network: empty edge list"

let run ~seed ~seconds ~trace ~work sink tally =
  let fasta = Filename.concat work (Printf.sprintf "network-%d.fa" seed) in
  let out = Filename.concat work "network-edges.tsv" in
  let seqs = write_records seed fasta ~keep:1025 in
  inputs_digest := Digest.to_hex (Digest.file fasta);
  (* the generator's garbage is collected before the program runs *)
  Gc.compact ();
  (* set-up: service creation, domain spawn and a warm-up batch of
     neighbouring pairs, full and capped, which fills the spec-cache
     replicas and workspace pools; the median of fifteen (see
     [Loop.setup_median]) *)
  let warm =
    let cfg = Config.make ~scheme:params.Pipeline.scheme ~mode:params.Pipeline.mode ~traceback:false () in
    Array.init 2048 (fun i ->
        let a = seqs.(i / 2) and b = seqs.((i / 2) + 1) in
        if i mod 2 = 0 then Service.job ~config:cfg ~query:a ~subject:b ()
        else Service.job ~config:cfg ~max_dist:(len / 10) ~query:a ~subject:b ())
  in
  let make () =
    let svc = Service.create ~shards:2 ~capacity:4096 () in
    ignore (Service.run svc warm);
    svc
  in
  let svc, first = Loop.setup_once make in
  let m = Service.metrics svc in
  let digest = ref None and report = ref None in
  let round () =
    let c0 = counter m "runtime/cells_computed" in
    let r =
      match Pipeline.run ~service:svc ~tmp_dir:work ~out params (Pipeline.File fasta) with
      | Ok r -> r
      | Error e -> failwith ("network: " ^ e)
    in
    report := Some r;
    (r.Pipeline.pairs_aligned + r.Pipeline.pairs_cutoff, counter m "runtime/cells_computed" -. c0)
  in
  let between () =
    let r = Option.get !report in
    check tally (r.Pipeline.pairs_failed = 0 && r.Pipeline.pairs_timeout = 0) "network: failed pairs";
    let d = Digest.to_hex (Digest.file out) in
    record_outputs [ d ];
    match !digest with
    | None ->
        digest := Some d;
        check_edges tally ~seed ~fasta out
    | Some d0 -> check tally (d = d0) "network: edge list differs between runs of one input"
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
    let acc, traced = Loop.traced sink ~svc ~budget:seconds ~between round in
    put sink "trace.dropped" "count" (fi (acc.dropped + setup_dropped));
    let r = Option.get !report in
    let runs = fi (Array.length traced) in
    let per_run name = self_s acc.spans name /. runs in
    put sink "network.index.self_s" "s" (per_run "network.index");
    put sink "network.align.self_s" "s" (per_run "network.align");
    put sink "network.cluster.self_s" "s" (per_run "network.cluster");
    let resolved = r.Pipeline.pairs_aligned + r.Pipeline.pairs_cutoff in
    put sink "network.cutoff_frac" "frac" (ratio (fi r.Pipeline.pairs_cutoff) (fi resolved));
    put sink "network.resubmits" "count" (fi r.Pipeline.resubmits);
    put sink "network.evictions" "count" (fi r.Pipeline.evictions);
    put sink "edges.spilled_runs" "count" (fi r.Pipeline.spilled_runs);
    put sink "index.prune_frac" "frac" (ratio (fi r.Pipeline.pairs_pruned) (fi r.Pipeline.pairs_total));
    (* direct calls into the streaming reader, the sketcher and the index *)
    let fold_s =
      Trace.with_span "bench.fasta_fold" (fun () ->
          median
            (repeat_for ~min_reps:3 0.0 (fun () ->
                 ignore (Fasta.fold Alphabet.dna4 fasta ~init:0 ~f:(fun n _ -> n + 1)))))
    in
    put sink "seqio.fasta_fold_s" "s" fold_s;
    let seqs = List.map (fun r -> r.Fasta.sequence) (read_records fasta (fun _ -> true)) in
    let bp = List.fold_left (fun a s -> a + Sequence.length s) 0 seqs in
    let sketches = ref [] in
    let sketch_s =
      Trace.with_span "bench.sketch" (fun () ->
          median
            (repeat_for ~min_reps:3 0.0 (fun () ->
                 sketches := List.map (fun s -> Minimizer.sketch ~k:params.Pipeline.k ~w:params.Pipeline.w s) seqs)))
    in
    put sink "minimizer.sketch_ns_per_bp" "ns" (sketch_s *. 1e9 /. fi bp);
    let index = Net_index.create () in
    let t0 = now () in
    Trace.with_span "bench.index" (fun () ->
        List.iter
          (fun sk -> ignore (Net_index.add index sk ~min_shared:params.Pipeline.min_shared ~f:(fun _ _ -> ())))
          !sketches);
    put sink "index.add_s" "s" (now () -. t0);
    put sink "index.postings" "count" (fi (Net_index.postings index));
    (* the banded and full Myers kernels on in-family neighbours (resolved)
       and cross-family pairs (cut off), capped at the identity floor *)
    let arr = Array.of_list seqs in
    let rng = Anyseq_util.Rng.create ~seed:(seed + 2) in
    let pairs =
      List.init 256 (fun k ->
          let i = Anyseq_util.Rng.int rng (Array.length arr - 1) in
          let j = if k mod 2 = 0 then i + 1 else Anyseq_util.Rng.int rng (Array.length arr) in
          let q = arr.(i) and s = arr.(j) in
          let cap = int_of_float ((1.0 -. params.Pipeline.min_ident) *. fi (max (Sequence.length q) (Sequence.length s))) in
          { Layers.scheme = params.Pipeline.scheme; mode = params.Pipeline.mode; q; s; cap = Some cap })
    in
    Layers.kernels sink ~native:[] ~myers:pairs ~banded:pairs ~traceback:[] ~wavefront:[];
    Layers.zeros sink Layers.serve_zeros
  end;
  Service.shutdown svc;
  List.iter Sys.remove [ fasta; out ]
