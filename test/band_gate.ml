(* band-gate: tier-1 gate for the Ukkonen-banded Myers engine, run by
   `dune build @band-gate`.

   The banded tier is an acceleration, never an approximation. Two
   assertion groups enforce that:

   1. {b Engine bit-identity.} Across a sweep of lengths straddling the
      62-bit word boundaries (61/62/63/124) plus random multi-word pairs,
      the banded iterative-deepening [Myers.distance], the full-sweep
      [Myers.distance_full] and the dense [Dp_linear] reference must
      agree exactly, and [Myers.distance_upto ~k] must answer [Some d]
      precisely when [k >= d] and [None] below it — the band may only
      ever prune rows that cannot hold the optimum.

   1b. {b The one-word diagonal rung at its boundaries.} Caps 0, 1,
      59, 60 (the rung alone) and 61, 62 (the block band), length gaps
      k − 1, k and k + 1, lengths 1, 61–63, 124–126 and 200 plus empty
      sides, on unrelated (early-exit), related, poly-A and tandem-repeat
      pairs: [distance_upto] at the cap and at d − 1, d, d + 1 answers
      [Some d] exactly when d ≤ k, with [distance] ≡ [distance_full] ≡
      [Dp_linear].

   2. {b Cutoff-driven network ≡ uncapped network, byte for byte.} The
      similarity-network pipeline on star-family input, once with the
      score/identity/top-k floors converted into per-pair distance caps
      ([cutoff = true]) and once aligning every candidate to completion
      ([cutoff = false]), must write byte-identical edge TSVs — and the
      capped run must actually cut pairs off ([pairs_cutoff > 0]), so
      the gate cannot silently pass with the caps disabled. *)

module Rng = Anyseq_util.Rng
module Sequence = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types
module Myers = Anyseq_core.Myers
module Dp_linear = Anyseq_core.Dp_linear
module Pipeline = Anyseq.Pipeline
module Genome_gen = Anyseq.Genome_gen

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n" what
  end

(* ---- 1: engine bit-identity ---- *)

let dna = Sequence.of_string Alphabet.dna4

let reference_distance q s =
  let qv = Sequence.view (dna q) and sv = Sequence.view (dna s) in
  -(Dp_linear.score_only Myers.unit_scheme T.Global ~query:qv ~subject:sv).T.score

let random_dna rng len =
  String.init len (fun _ -> "ACGT".[Rng.int rng 4])

let mutate rng s rate =
  String.concat ""
    (List.filter_map
       (fun c ->
         if Rng.float rng 1.0 < rate then
           match Rng.int rng 3 with
           | 0 -> None (* deletion *)
           | 1 -> Some (Printf.sprintf "%c%c" "ACGT".[Rng.int rng 4] c) (* insertion *)
           | _ -> Some (String.make 1 "ACGT".[Rng.int rng 4]) (* substitution *)
         else Some (String.make 1 c))
       (List.init (String.length s) (String.get s)))

let engine_identity () =
  let rng = Rng.create ~seed:20260808 in
  let pairs = ref [] in
  (* word-boundary lengths, near pairs (small d, deep band pruning) and
     far pairs (random vs random, d ~ length) *)
  List.iter
    (fun n ->
      let q = random_dna rng n in
      pairs := (q, mutate rng q 0.05) :: (q, random_dna rng n) :: !pairs)
    [ 61; 62; 63; 124; 200 ];
  (* random mixed lengths, including empty and length-gapped *)
  for _ = 1 to 40 do
    let q = random_dna rng (Rng.int rng 180) in
    pairs := (q, mutate rng q 0.1) :: !pairs
  done;
  pairs := ("", "") :: ("", "ACGT") :: ("ACGTACGT", "") :: !pairs;
  let checked = ref 0 in
  List.iter
    (fun (q, s) ->
      let d_ref = reference_distance q s in
      let qs = dna q and ss = dna s in
      check "banded distance = Dp_linear" (Myers.distance qs ss = d_ref);
      check "full-sweep distance = Dp_linear" (Myers.distance_full qs ss = d_ref);
      check "upto at d succeeds" (Myers.distance_upto ~k:d_ref qs ss = Some d_ref);
      check "upto above d succeeds" (Myers.distance_upto ~k:(d_ref + 1) qs ss = Some d_ref);
      check "upto below d refuses"
        (d_ref = 0 || Myers.distance_upto ~k:(d_ref - 1) qs ss = None);
      incr checked)
    !pairs;
  !checked

(* ---- 1b: the one-word diagonal rung at its boundaries ----

   Caps up to 60 run the diagonal band alone; 61 and 62 fall through to
   the block band. Each pair is checked at the sweep's cap and at d − 1,
   d and d + 1, so the distance sits exactly at the cap and one above
   it, and every query goes through one shared arena, whose buffers come
   back dirty. *)

let rung_ks = [ 0; 1; 59; 60; 61; 62 ]
let rung_lengths = [ 0; 1; 61; 62; 63; 124; 125; 126; 200 ]

let tandem unit len = String.init len (fun i -> unit.[i mod String.length unit])

let rung_sweep () =
  let rng = Rng.create ~seed:20261018 in
  let ws = Anyseq_core.Scratch.create () in
  let checked = ref 0 in
  let check_pair ~k q s =
    let d = reference_distance q s in
    let qs = dna q and ss = dna s in
    let what = Printf.sprintf "n=%d m=%d k=%d d=%d" (String.length q) (String.length s) k d in
    check ("full = Dp_linear, " ^ what) (Myers.distance_full ~ws qs ss = d);
    check ("distance = Dp_linear, " ^ what) (Myers.distance ~ws qs ss = d);
    List.iter
      (fun k ->
        let want = if d <= k then Some d else None in
        check
          (Printf.sprintf "upto ~k:%d iff d <= k, %s" k what)
          (Myers.distance_upto ~ws ~k qs ss = want))
      [ k; d - 1; d; d + 1 ];
    incr checked
  in
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          List.iter
            (fun gap ->
              List.iter
                (fun m ->
                  if gap >= 0 && m >= 0 then begin
                    let q = random_dna rng n in
                    (* unrelated: dropped within a few columns when k is small *)
                    check_pair ~k q (random_dna rng m);
                    (* related: a prefix of q or q extended, then about k/2 edits *)
                    let base =
                      if m <= n then String.sub q 0 m else q ^ random_dna rng (m - n)
                    in
                    let rate = if m = 0 then 0.0 else float_of_int (k / 2) /. float_of_int m in
                    check_pair ~k q (mutate rng base rate);
                    (* poly-A: d = |n − m| exactly *)
                    check_pair ~k (String.make n 'A') (String.make m 'A');
                    (* tandem repeats, the subject out of phase by one *)
                    check_pair ~k (tandem "ACG" n) (tandem "CGA" m);
                    check_pair ~k (tandem "AACGT" n) (tandem "AACGT" m)
                  end)
                [ n - gap; n + gap ])
            [ k - 1; k; k + 1 ])
        rung_lengths)
    rung_ks;
  !checked

(* ---- 2: cutoff-driven network byte-identity ---- *)

let families = 6
let members = 32
let len = 128

let star_families ~seed =
  let rng = Rng.create ~seed in
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out =
    Array.make (families * members) ("", Sequence.of_string Alphabet.dna4 "A")
  in
  for f = 0 to families - 1 do
    let root = Genome_gen.generate rng ~len () in
    for m = 0 to members - 1 do
      let s = if m = 0 then root else Genome_gen.mutate rng ~divergence:div root in
      out.((f * members) + m) <- (Printf.sprintf "fam%d_%03d" f m, s)
    done
  done;
  out

let run_once ~tag ~cutoff seqs =
  let out =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "anyseq-bandgate-%d-%s.tsv" (Unix.getpid ()) tag)
  in
  let params =
    {
      Pipeline.default_params with
      scheme = Anyseq.Scheme.unit_cost;
      (* brute force: the minimizer prefilter would drop the divergent
         cross-family pairs before alignment, and those are exactly the
         pairs the distance caps must cut off *)
      min_shared = 0;
      min_ident = 0.7;
      top_k = 4;
      cutoff;
    }
  in
  let service = Anyseq.Service.create ~shards:1 ~capacity:4096 () in
  let r =
    Fun.protect
      ~finally:(fun () -> Anyseq.Service.shutdown service)
      (fun () -> Pipeline.run ~service ~out params (Pipeline.Seqs seqs))
  in
  match r with
  | Ok rep -> (out, rep)
  | Error msg ->
      Printf.eprintf "FAIL: %s run: %s\n" tag msg;
      exit 1

let read_bytes path = In_channel.with_open_text path In_channel.input_all

let () =
  let n_pairs = engine_identity () in
  let n_rung = rung_sweep () in
  let seqs = star_families ~seed:808 in
  let cut_out, cut = run_once ~tag:"cutoff" ~cutoff:true seqs in
  let unc_out, unc = run_once ~tag:"uncapped" ~cutoff:false seqs in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ cut_out; unc_out ])
    (fun () ->
      check "caps actually fired" (cut.Pipeline.pairs_cutoff > 0);
      check "uncapped run has no cutoffs" (unc.Pipeline.pairs_cutoff = 0);
      check "edges exist" (cut.Pipeline.edges > 0);
      check "cutoff edge list ≡ uncapped edge list"
        (read_bytes cut_out = read_bytes unc_out);
      check "both runs resolve the same pair count"
        (cut.Pipeline.pairs_aligned + cut.Pipeline.pairs_cutoff
        = unc.Pipeline.pairs_aligned + unc.Pipeline.pairs_cutoff));
  if !failures = 0 then begin
    Printf.printf
      "band-gate OK: %d pairs banded ≡ full ≡ Dp_linear; %d diagonal-rung boundary pairs; \
       network with cutoffs ≡ without (%d aligned + %d cut off, %d edges)\n"
      n_pairs n_rung cut.Pipeline.pairs_aligned cut.Pipeline.pairs_cutoff cut.Pipeline.edges;
    exit 0
  end
  else begin
    Printf.eprintf "band-gate: %d failure(s)\n" !failures;
    exit 1
  end
