(* Allocation gate for the zero-allocation hot path (ISSUE 5).

   Warms a service (specialization cache populated, per-domain workspace
   arenas grown to steady state), then measures [Gc.minor_words] across
   repeated score-only batches through [Service.run]. In steady state the
   per-alignment cost must stay under a fixed budget of minor words —
   request parsing and result plumbing only; DP rows, lane buffers, and
   traceback matrices all come from the arena.

   A second row does the same for the wavefront tier: 2.5 kbp pairs, one
   per gap model and mode, at two wavefront domains. Its tiles must
   allocate nothing and its plan stripes must come from the arena, so
   both the minor words and the words allocated directly on the major
   heap stay under fixed per-job budgets.

   Run via [dune build @alloc-gate]. Exits non-zero (failing the alias)
   when the budget is exceeded, so a regression that reintroduces per-call
   allocation in the kernels or the batch executor breaks tier-1. *)

module Rng = Anyseq_util.Rng
module Sequence = Anyseq.Sequence
module Service = Anyseq.Service
module Config = Anyseq.Config

(* Budget, in minor words per alignment, for a 50-150 bp score-only
   batch. Steady state measures ~81: two sequence parses (~17 words each
   of packed codes), the prepared-job record, the result cell, and the
   grouping cons cells; the kernel itself contributes only its 4-word
   [ends] record. 100 leaves headroom for compiler version drift without
   letting a per-row allocation (151+ words) or a per-cell one sneak
   back in. *)
let budget_words_per_alignment = 100.0

(* Budgets, per 2.5 kbp wavefront job (6.25 M cells, tile 512, so 25
   tiles). Steady state measures ~3.7k minor words (the domain spawned
   for the scheduler, its ready queue and tile graph, the plan records,
   the folded substitution table, result plumbing) and ~630 words direct
   on the major heap: the two parsed sequences, whose 2.5 kB of packed
   codes each are too large for the minor heap. Before the tiles shared
   the native row sweeps and the arena stripes, a job took ~75k minor
   and ~98k direct major words; one per-tile row buffer (2 × 513 words,
   major) or one per-row closure breaks these budgets. *)
let wavefront_minor_budget = 6000.0
let wavefront_major_budget = 1000.0

let jobs_per_batch = 64
let warm_batches = 4
let measured_batches = 16

let random_sequence rng len =
  String.init len (fun _ -> "ACGT".[Rng.int rng 4])

(* Allocation since the last call, summed over every domain: a forced
   minor collection first makes [Gc.quick_stat]'s per-domain samples
   exact. Returns (minor words, words allocated directly on the major
   heap). *)
let alloc_counts () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words -. s.Gc.promoted_words)

let wavefront_row () =
  let rng = Rng.create ~seed:2500 in
  let svc = Service.create ~domains:2 () in
  let jobs =
    List.concat_map
      (fun scheme ->
        List.map
          (fun mode ->
            let q = Anyseq.Genome_gen.generate rng ~len:2500 () in
            let s = Anyseq.Genome_gen.mutate rng q in
            let config =
              Config.make ~scheme ~mode ~traceback:false ~backend:Config.Wavefront ()
            in
            Service.job ~config ~query:(Sequence.to_string q) ~subject:(Sequence.to_string s) ())
          [ Anyseq.Types.Global; Anyseq.Types.Semiglobal; Anyseq.Types.Local ])
      [ Anyseq.Scheme.paper_linear; Anyseq.Scheme.paper_affine ]
  in
  let run_each () =
    List.iter
      (fun job ->
        match (Service.run svc [| job |]).(0) with
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "alloc-gate: wavefront job failed: %s\n" (Anyseq.Error.to_string e);
            exit 2)
      jobs
  in
  run_each ();
  run_each ();
  let rounds = 4 in
  let minor0, major0 = alloc_counts () in
  for _ = 1 to rounds do
    run_each ()
  done;
  let minor1, major1 = alloc_counts () in
  let per x0 x1 = (x1 -. x0) /. float_of_int (rounds * List.length jobs) in
  let minor = per minor0 minor1 and major = per major0 major1 in
  Printf.printf
    "alloc-gate: wavefront %.0f minor words/job (budget %.0f), %.0f direct major words/job \
     (budget %.0f), %d jobs of 2.5 kbp measured\n"
    minor wavefront_minor_budget major wavefront_major_budget
    (rounds * List.length jobs);
  if minor >= wavefront_minor_budget || major >= wavefront_major_budget then begin
    Printf.eprintf "alloc-gate FAILED: wavefront tier over its per-job allocation budget\n";
    exit 1
  end

let () =
  let svc = Service.create () in
  let rng = Rng.create ~seed:2024 in
  let config = Config.make ~traceback:false ~backend:Config.Scalar () in
  let jobs =
    Array.init jobs_per_batch (fun _ ->
        let query = random_sequence rng (50 + Rng.int rng 101) in
        let subject = random_sequence rng (50 + Rng.int rng 101) in
        Service.job ~config ~query ~subject ())
  in
  let run_batch () =
    let results = Service.run svc jobs in
    Array.iter
      (function
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "alloc-gate: job failed: %s\n" (Anyseq.Error.to_string e);
            exit 2)
      results
  in
  for _ = 1 to warm_batches do
    run_batch ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to measured_batches do
    run_batch ()
  done;
  let per_alignment =
    (Gc.minor_words () -. before)
    /. float_of_int (measured_batches * jobs_per_batch)
  in
  Printf.printf
    "alloc-gate: %.1f minor words/alignment (budget %.0f, %d alignments measured)\n"
    per_alignment budget_words_per_alignment
    (measured_batches * jobs_per_batch);
  if per_alignment >= budget_words_per_alignment then begin
    Printf.eprintf
      "alloc-gate FAILED: steady-state allocation %.1f >= %.0f minor words/alignment\n"
      per_alignment budget_words_per_alignment;
    exit 1
  end;
  wavefront_row ()
