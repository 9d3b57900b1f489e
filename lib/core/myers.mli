(** Myers' bit-parallel edit-distance kernel (Myers 1999, multi-word form).

    For the unit-cost configuration (match 0, mismatch/indel cost 1 — the
    scheme-land scores are match 0, mismatch −1, linear gap penalty 1) the
    DP column fits in bit vectors: one word operation advances
    {!word_bits} cells. This is the ultimate form of the specialization
    story the paper tells — when the analyzer proves a scoring scheme is
    unit-cost ({!Anyseq_analysis.Property}'s [Unit_cost] certificate), a
    completely different, far faster kernel becomes admissible. The
    engines here are verified against the general DP under the equivalent
    scheme ([unit_scheme]): [distance q s = - global_score], and [search]
    matches the subject-contained ends-free policy.

    Patterns of any length are supported (vertical blocks with carry
    propagation). The vectors are 62-bit limbs of native [int] — the carry
    add of two limbs stays inside OCaml's 63-bit range — so the inner loop
    boxes nothing and the state buffers pool in a {!Scratch} arena. *)

val unit_scheme : Anyseq_scoring.Scheme.t
(** match 0, mismatch −1, linear gap penalty 1 over dna4 — the general-DP
    scheme whose global score is the negated edit distance. This is
    {!Anyseq_scoring.Scheme.unit_cost} itself (physically equal), so jobs
    naming the ["unit-cost"] builtin reuse its specialization-cache entry
    and bit-parallel eligibility. *)

val word_bits : int
(** Cells advanced per word operation (62: native-int limbs). *)

val distance : ?ws:Scratch.t -> Anyseq_bio.Sequence.t -> Anyseq_bio.Sequence.t -> int
(** Global (Levenshtein) edit distance. Runs iterative deepening: first
    a one-word diagonal band at k = 60 (Hyyrö's banded bit-vector
    algorithm: one word per column, exact for d ≤ k, dropped as soon as
    the value on the final cell's diagonal exceeds k), then the Ukkonen
    block band from k = 124 (from max 62 |n − m| when the lengths differ
    by more than 60), doubling until the band survives — so the
    cost is O(m·d/62) block steps for true distance d instead of the
    full sweep's O(m·n/62): long low-divergence pairs skip almost every
    block. Bit-identical to {!distance_full}. With [ws], the pattern
    masks, column vectors and band scores come from the arena and the
    call is allocation-free in steady state — the form the runtime's
    bit-parallel tier uses. *)

val distance_full : ?ws:Scratch.t -> Anyseq_bio.Sequence.t -> Anyseq_bio.Sequence.t -> int
(** The pre-band full sweep: every block of every column, no cut-off.
    Kept as the differential baseline for the banded core (tier-1
    [@band-gate] checks [distance] ≡ [distance_full] ≡ the general DP)
    and as the bench comparison point for the banded speedup. *)

val distance_upto :
  ?ws:Scratch.t -> k:int -> Anyseq_bio.Sequence.t -> Anyseq_bio.Sequence.t -> int option
(** Bounded-distance form: [Some d] iff the edit distance d is ≤ [k] —
    bit-identical to [distance] whenever it returns [Some] — and [None]
    as soon as the bound is provably exceeded, which for hopeless pairs
    happens after a few columns (the band collapses) rather than after
    the full O(nm/62) sweep. Runs the same iterative deepening as
    [distance] with [k] as the ceiling — a cap of at most 60 runs the
    diagonal band alone — so the cost is O(m·min(k,d)/62) block steps
    regardless of how loose the cap is: a near-identical pair under a
    generous cap still resolves in the one-word band. [k < 0] is always
    [None]. *)

val search :
  pattern:Anyseq_bio.Sequence.t -> text:Anyseq_bio.Sequence.t -> int * int
(** [(best_distance, end_position)]: the minimum edit distance between the
    pattern and any substring of the text, and the (exclusive, smallest)
    text end position achieving it — approximate string matching with free
    text ends. An empty pattern yields [(0, 0)]. *)

val occurrences :
  pattern:Anyseq_bio.Sequence.t -> text:Anyseq_bio.Sequence.t -> k:int -> (int * int) list
(** All text end positions with distance ≤ [k], as [(end_pos, distance)]
    in increasing position order — the classic k-errors matching problem. *)
