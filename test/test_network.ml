module Minimizer = Anyseq_network.Minimizer
module Index = Anyseq_network.Index
module Topk = Anyseq_network.Topk
module Edges = Anyseq_network.Edges
module Components = Anyseq_network.Components
module Pipeline = Anyseq_network.Pipeline
module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Genome_gen = Anyseq_seqio.Genome_gen
module Scheme = Anyseq_scoring.Scheme
module Rng = Anyseq_util.Rng

let dna = Alphabet.dna4
let seq s = Sequence.of_string dna s

(* ------------------------------------------------------------------ *)
(* Minimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_minimizer_short () =
  (* sequences shorter than k have no k-mer, hence an empty sketch *)
  Alcotest.(check int) "empty sequence" 0 (Array.length (Minimizer.sketch (seq "")));
  Alcotest.(check int) "below k" 0
    (Array.length (Minimizer.sketch ~k:11 (seq "ACGTACGTAC")));
  Alcotest.(check bool) "exactly k sketches" true
    (Array.length (Minimizer.sketch ~k:11 (seq "ACGTACGTACG")) > 0)

let test_minimizer_homopolymer () =
  (* a homopolymer run has one distinct k-mer, hence one distinct minimizer *)
  let s = seq (String.make 200 'A') in
  Alcotest.(check int) "one distinct minimizer" 1
    (Array.length (Minimizer.sketch s));
  let t = seq (String.make 64 'G') in
  Alcotest.(check int) "other letter too" 1 (Array.length (Minimizer.sketch t))

let test_minimizer_duplicates () =
  let rng = Rng.create ~seed:11 in
  let s = Genome_gen.generate rng ~len:300 () in
  let a = Minimizer.sketch s and b = Minimizer.sketch s in
  Alcotest.(check bool) "identical sketches" true (a = b);
  Alcotest.(check int) "share everything" (Array.length a) (Minimizer.shared a b)

let test_minimizer_sorted_distinct () =
  let rng = Rng.create ~seed:12 in
  let s = Genome_gen.generate rng ~len:1000 () in
  let a = Minimizer.sketch s in
  Alcotest.(check bool) "non-empty" true (Array.length a > 0);
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then Alcotest.failf "not sorted distinct at %d" i
  done

let test_minimizer_validation () =
  let s = seq "ACGTACGTACGTACGT" in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "k too small" true (bad (fun () -> Minimizer.sketch ~k:1 s));
  Alcotest.(check bool) "k too large" true
    (bad (fun () -> Minimizer.sketch ~k:(Minimizer.max_k + 1) s));
  Alcotest.(check bool) "w < 1" true (bad (fun () -> Minimizer.sketch ~w:0 s))

(* Mutated copies must keep sharing minimizers — the prefilter's whole
   premise — and the inverted index must report exactly the pairs whose
   direct [Minimizer.shared] count clears the threshold. *)
let test_index_matches_pairwise () =
  let rng = Rng.create ~seed:13 in
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let seqs =
    Array.init 40 (fun i ->
        if i mod 8 = 0 then Genome_gen.generate rng ~len:240 ()
        else Genome_gen.mutate rng ~divergence:div (Genome_gen.generate rng ~len:240 ()))
  in
  (* families: overwrite members 1..7 of each block with chained mutants *)
  for f = 0 to 4 do
    for m = 1 to 7 do
      seqs.((f * 8) + m) <- Genome_gen.mutate rng ~divergence:div seqs.((f * 8) + m - 1)
    done
  done;
  let sketches = Array.map Minimizer.sketch seqs in
  let min_shared = 3 in
  let expected = Hashtbl.create 64 in
  for j = 0 to Array.length seqs - 1 do
    for i = 0 to j - 1 do
      let c = Minimizer.shared sketches.(i) sketches.(j) in
      if c >= min_shared then Hashtbl.replace expected (i, j) c
    done
  done;
  Alcotest.(check bool) "families produce candidates" true (Hashtbl.length expected > 0);
  let idx = Index.create () in
  let reported = Hashtbl.create 64 in
  Array.iteri
    (fun j sk ->
      let id = Index.add idx sk ~min_shared ~f:(fun i c -> Hashtbl.replace reported (i, j) c) in
      Alcotest.(check int) "ids assigned in order" j id)
    sketches;
  Alcotest.(check int) "same candidate count" (Hashtbl.length expected)
    (Hashtbl.length reported);
  Hashtbl.iter
    (fun (i, j) c ->
      match Hashtbl.find_opt reported (i, j) with
      | Some c' when c' = c -> ()
      | Some c' -> Alcotest.failf "pair (%d,%d): shared %d reported %d" i j c c'
      | None -> Alcotest.failf "pair (%d,%d) missing from index candidates" i j)
    expected

let test_index_brute_force_mode () =
  let rng = Rng.create ~seed:14 in
  let sketches = Array.init 10 (fun _ -> Minimizer.sketch (Genome_gen.generate rng ~len:150 ())) in
  let idx = Index.create () in
  let pairs = ref 0 in
  Array.iter (fun sk -> ignore (Index.add idx sk ~min_shared:0 ~f:(fun _ _ -> incr pairs))) sketches;
  Alcotest.(check int) "min_shared <= 0 reports every pair" 45 !pairs

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)
(* ------------------------------------------------------------------ *)

let test_topk_order_independent () =
  let hits =
    [ (3, 10); (1, 10); (7, 12); (2, 5); (9, 12); (4, 8); (5, 10); (0, 3) ]
    |> List.map (fun (partner, score) -> { Topk.partner; score; ident = 0.9 })
  in
  let fill order =
    let t = Topk.create ~k:4 in
    let evictions = List.fold_left (fun n h -> if Topk.add t h then n + 1 else n) 0 order in
    (Topk.to_sorted t, evictions)
  in
  let a, ea = fill hits in
  let b, eb = fill (List.rev hits) in
  Alcotest.(check bool) "same contents any order" true (a = b);
  Alcotest.(check int) "same evictions" ea eb;
  Alcotest.(check int) "bounded" 4 (Array.length a);
  (* best first: score desc, partner asc on ties *)
  let expect = [| (7, 12); (9, 12); (1, 10); (3, 10) |] in
  Array.iteri
    (fun i h ->
      let p, s = expect.(i) in
      Alcotest.(check int) (Printf.sprintf "slot %d partner" i) p h.Topk.partner;
      Alcotest.(check int) (Printf.sprintf "slot %d score" i) s h.Topk.score)
    a

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)
(* ------------------------------------------------------------------ *)

let test_edges_spill_merge () =
  let tmp = Filename.get_temp_dir_name () in
  let out = Filename.temp_file "anyseq_test_edges" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      (* tiny buffer: force several spill runs; add each edge twice (the
         pipeline records from both endpoints) in scrambled order *)
      let w = Edges.create ~buffer:8 ~tmp_dir:tmp () in
      let edges =
        List.init 30 (fun i ->
            { Edges.a = i mod 6; b = 6 + (i mod 24); score = 100 - i; ident = 0.75; span = 50 + i })
      in
      let scrambled = List.rev edges @ edges in
      List.iter (Edges.add w) scrambled;
      Alcotest.(check bool) "spilled" true (Edges.runs w > 0);
      let seen = ref [] in
      let st = Edges.finish w ~out ~name:(Printf.sprintf "s%d") ~f:(fun e -> seen := e :: !seen) in
      let distinct =
        List.sort_uniq compare (List.map (fun e -> (e.Edges.a, e.Edges.b)) edges)
      in
      Alcotest.(check int) "duplicates merged" (List.length distinct) st.Edges.written;
      Alcotest.(check int) "duplicate count" (2 * List.length edges - List.length distinct)
        st.Edges.duplicates;
      Alcotest.(check bool) "spilled runs reported" true (st.Edges.spilled_runs > 0);
      Alcotest.(check int) "hook saw every written edge" st.Edges.written (List.length !seen);
      (* file is sorted by (a, b) index pair and one line per edge *)
      let lines = In_channel.with_open_text out In_channel.input_lines in
      Alcotest.(check int) "line count" st.Edges.written (List.length lines);
      let keys =
        List.rev_map (fun e -> (e.Edges.a, e.Edges.b)) !seen
      in
      Alcotest.(check bool) "hook order sorted" true (keys = List.sort compare keys);
      (* no stray run files of ours left behind (pid-scoped names: files
         from other processes sharing the temp dir don't count) *)
      let prefix = Printf.sprintf "anyseq-net-run-%d-" (Unix.getpid ()) in
      Array.iter
        (fun f ->
          if String.length f >= String.length prefix
             && String.sub f 0 (String.length prefix) = prefix
          then Alcotest.failf "run file %s not cleaned up" f)
        (Sys.readdir tmp))

(* Spilling changes nothing in the output: the same edges written through
   a buffer so small that the runs outnumber the merge fan-in (merged in
   passes), a small buffer (many runs), a buffer larger than one merge
   chunk (runs read back in several chunks) and all in memory give
   byte-identical TSVs and the same hook sequence. Identities include
   values whose two-decimal rounding is delicate. *)
let test_edges_spill_bytes () =
  let rng = Rng.create ~seed:1213 in
  let idents = [| 0.0; 1.0; 1.0 /. 3.0; 0.995; 0.00005; 0.12345; 0.875; 2.0 /. 3.0 |] in
  (* distinct (a, b) keys in scrambled order *)
  let edges =
    Array.init 10_000 (fun i ->
        let a = i / 50 in
        {
          Edges.a;
          b = a + 1 + (3 * (i mod 50));
          score = Rng.int rng 400 - 200;
          ident =
            (if Rng.int rng 2 = 0 then idents.(Rng.int rng (Array.length idents))
             else Rng.float rng 1.0);
          span = 100 + Rng.int rng 100;
        })
  in
  for i = Array.length edges - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let e = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- e
  done;
  (* 600 edges arrive a second time, as the pipeline sends each hit from
     both endpoints *)
  let edges = Array.append edges (Array.sub edges 0 600) in
  let run buffer =
    let out = Filename.temp_file "anyseq_test_edges" ".tsv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let w = Edges.create ~buffer ~tmp_dir:(Filename.get_temp_dir_name ()) () in
        Array.iter (Edges.add w) edges;
        let seen = ref [] in
        let st =
          Edges.finish w ~out ~name:(Printf.sprintf "seq%d") ~f:(fun e -> seen := e :: !seen)
        in
        (In_channel.with_open_bin out In_channel.input_all, st, !seen))
  in
  let mem_tsv, mem_st, mem_seen = run (Array.length edges) in
  Alcotest.(check int) "in-memory run spills nothing" 0 mem_st.Edges.spilled_runs;
  List.iter
    (fun buffer ->
      let tsv, st, seen = run buffer in
      let what = Printf.sprintf "buffer %d" buffer in
      Alcotest.(check bool) (what ^ ": several runs") true (st.Edges.spilled_runs >= 2);
      Alcotest.(check bool) (what ^ ": TSV bytes") true (tsv = mem_tsv);
      Alcotest.(check int) (what ^ ": written") mem_st.Edges.written st.Edges.written;
      Alcotest.(check int) (what ^ ": duplicates") mem_st.Edges.duplicates st.Edges.duplicates;
      Alcotest.(check bool) (what ^ ": hook sequence") true (seen = mem_seen);
      if buffer = 8 then
        Alcotest.(check bool) (what ^ ": runs outnumber the fan-in") true
          (st.Edges.spilled_runs > Edges.merge_fan_in))
    [ 8; 64; 4500 ]

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let c = Components.create 10 in
  Components.union c 0 1;
  Components.union c 1 2;
  Components.union c 5 6;
  Components.union c 0 2 (* redundant union: same component *);
  let s = Components.summarize c in
  Alcotest.(check int) "nodes" 10 s.Components.nodes;
  Alcotest.(check int) "edges" 4 s.Components.edges;
  Alcotest.(check int) "components" 7 s.Components.components;
  Alcotest.(check int) "clusters" 2 s.Components.clusters;
  Alcotest.(check int) "singletons" 5 s.Components.singletons;
  Alcotest.(check int) "largest" 3 s.Components.largest;
  (* representative is the smallest member; sizes desc then rep asc *)
  Alcotest.(check bool) "size table" true
    (Array.to_list s.Components.sizes
    |> List.filter (fun (_, n) -> n > 1)
    |> ( = ) [ (0, 3); (5, 2) ]);
  Alcotest.(check bool) "histogram" true
    (List.mem (1, 5) (Components.size_histogram s))

(* ------------------------------------------------------------------ *)
(* Pipeline end to end                                                 *)
(* ------------------------------------------------------------------ *)

let chain_families rng ~families ~members ~len =
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out = Array.make (families * members) ("", seq "A") in
  for f = 0 to families - 1 do
    let prev = ref (Genome_gen.generate rng ~len ()) in
    for m = 0 to members - 1 do
      if m > 0 then prev := Genome_gen.mutate rng ~divergence:div !prev;
      out.((f * members) + m) <- (Printf.sprintf "fam%d_%02d" f m, !prev)
    done
  done;
  out

let star_families rng ~families ~members ~len =
  (* star shape: every member a light mutation of the family root, so all
     within-family pairs stay well above the identity cutoff while
     cross-family pairs stay far below — the regime where the prefilter
     and brute force must agree exactly *)
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out = Array.make (families * members) ("", seq "A") in
  for f = 0 to families - 1 do
    let root = Genome_gen.generate rng ~len () in
    for m = 0 to members - 1 do
      let s = if m = 0 then root else Genome_gen.mutate rng ~divergence:div root in
      out.((f * members) + m) <- (Printf.sprintf "s%03d" ((f * members) + m), s)
    done
  done;
  out

let read_all path = In_channel.with_open_text path In_channel.input_lines

let test_pipeline_end_to_end () =
  let rng = Rng.create ~seed:21 in
  let seqs = star_families rng ~families:4 ~members:12 ~len:160 in
  let params =
    { Pipeline.default_params with
      scheme = Scheme.unit_cost; min_shared = 3; min_ident = 0.7; top_k = 16 }
  in
  let out = Filename.temp_file "anyseq_test_net" ".tsv" in
  let ref_out = Filename.temp_file "anyseq_test_net_ref" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove ref_out)
    (fun () ->
      let r =
        match Pipeline.run ~out params (Pipeline.Seqs seqs) with
        | Ok r -> r
        | Error msg -> Alcotest.failf "pipeline: %s" msg
      in
      Alcotest.(check int) "sequences" (Array.length seqs) r.Pipeline.sequences;
      Alcotest.(check int) "pair accounting adds up" r.Pipeline.pairs_total
        (r.Pipeline.pairs_pruned + r.Pipeline.pairs_aligned + r.Pipeline.pairs_cutoff
        + r.Pipeline.pairs_timeout + r.Pipeline.pairs_failed);
      Alcotest.(check int) "no failures" 0 r.Pipeline.pairs_failed;
      Alcotest.(check bool) "prefilter pruned something" true (r.Pipeline.pairs_pruned > 0);
      Alcotest.(check bool) "edges found" true (r.Pipeline.edges > 0);
      Alcotest.(check int) "four clusters" 4 r.Pipeline.components.Components.clusters;
      (* brute-force reference: same cutoffs, prefilter disabled *)
      let rr =
        match
          Pipeline.run ~out:ref_out { params with min_shared = 0 } (Pipeline.Seqs seqs)
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "reference: %s" msg
      in
      Alcotest.(check int) "reference pruned nothing" 0 rr.Pipeline.pairs_pruned;
      (* the chain decays identity, so distant within-family pairs fail the
         identity cutoff either way: the prefiltered edge list must equal
         the brute-force one byte for byte *)
      Alcotest.(check bool) "edge list matches brute force" true
        (read_all out = read_all ref_out))

let test_pipeline_too_short_and_statusz () =
  let rng = Rng.create ~seed:22 in
  let m = Anyseq_runtime.Metrics.create () in
  Alcotest.(check bool) "no status before a run" true (Pipeline.status_json m = None);
  let seqs =
    Array.append
      [| ("tiny1", seq "ACGT"); ("tiny2", seq "AC") |]
      (chain_families rng ~families:2 ~members:6 ~len:140)
  in
  let out = Filename.temp_file "anyseq_test_net" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let r =
        match
          Pipeline.run ~metrics:m ~out
            { Pipeline.default_params with scheme = Scheme.unit_cost; min_shared = 3 }
            (Pipeline.Seqs seqs)
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "pipeline: %s" msg
      in
      Alcotest.(check int) "short sequences counted" 2 r.Pipeline.too_short;
      Alcotest.(check int) "still clustered as singletons" 2
        r.Pipeline.components.Components.singletons;
      match Pipeline.status_json m with
      | None -> Alcotest.fail "status_json expected after a run"
      | Some json ->
          Alcotest.(check bool) "phase present" true
            (Helpers.contains_sub json "\"phase\":\"done\"");
          Alcotest.(check bool) "seqs_indexed present" true
            (Helpers.contains_sub json "\"seqs_indexed\":14"))

let test_pipeline_bad_input () =
  let out = Filename.temp_file "anyseq_test_net" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      match Pipeline.run ~out Pipeline.default_params (Pipeline.File "/nonexistent.fa") with
      | Ok _ -> Alcotest.fail "expected error on missing input"
      | Error _ -> ())

let () =
  Alcotest.run "network"
    [
      ( "minimizer",
        [
          Alcotest.test_case "shorter than k" `Quick test_minimizer_short;
          Alcotest.test_case "homopolymer" `Quick test_minimizer_homopolymer;
          Alcotest.test_case "duplicates" `Quick test_minimizer_duplicates;
          Alcotest.test_case "sorted distinct" `Quick test_minimizer_sorted_distinct;
          Alcotest.test_case "validation" `Quick test_minimizer_validation;
        ] );
      ( "index",
        [
          Alcotest.test_case "matches pairwise shared" `Quick test_index_matches_pairwise;
          Alcotest.test_case "brute-force mode" `Quick test_index_brute_force_mode;
        ] );
      ("topk", [ Alcotest.test_case "order independent" `Quick test_topk_order_independent ]);
      ( "edges",
        [
          Alcotest.test_case "spill and merge" `Quick test_edges_spill_merge;
          Alcotest.test_case "spilled TSV = in-memory TSV" `Quick test_edges_spill_bytes;
        ] );
      ("components", [ Alcotest.test_case "summary" `Quick test_components ]);
      ( "pipeline",
        [
          Alcotest.test_case "end to end vs brute force" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "short sequences and status" `Quick test_pipeline_too_short_and_statusz;
          Alcotest.test_case "bad input" `Quick test_pipeline_bad_input;
        ] );
    ]
