(** Wavefront schedulers over a tile grid (§IV-A).

    [run_dynamic] is the paper's contribution configuration: a shared
    concurrent queue of ready tiles; a worker that completes a tile marks it
    done in the atomic flag arrays and enqueues any successor whose
    dependencies just became satisfied. No barriers anywhere.

    [run_static] is the preliminary-version baseline of Fig. 6: tiles of one
    anti-diagonal are distributed round-robin over the workers, with a full
    barrier (join) between diagonals.

    Both drive an arbitrary [compute] callback, so they schedule single
    alignments (one plan) as well as many concurrent alignments (the Fig. 3
    scenario — see {!run_dynamic_many}). *)

val run_dynamic :
  ?impl:Workqueue.impl ->
  domains:int ->
  rows:int ->
  cols:int ->
  compute:(ti:int -> tj:int -> unit) ->
  unit ->
  unit

val run_static :
  domains:int -> rows:int -> cols:int -> compute:(ti:int -> tj:int -> unit) -> unit -> unit

val run_dynamic_many :
  ?impl:Workqueue.impl ->
  domains:int ->
  grids:(int * int) array ->
  compute:(grid:int -> ti:int -> tj:int -> unit) ->
  unit ->
  unit
(** Schedule several independent tile grids (several alignments of
    different sizes, Fig. 3) through one shared queue — completed grids
    free their workers for the remaining ones automatically. *)

val score_parallel :
  ?impl:Workqueue.impl ->
  ?tile:int ->
  domains:int ->
  Anyseq_scoring.Scheme.t ->
  Anyseq_core.Types.mode ->
  query:Anyseq_bio.Sequence.t ->
  subject:Anyseq_bio.Sequence.t ->
  Anyseq_core.Types.ends
(** Multithreaded score-only alignment: a {!Anyseq_core.Tiling.plan}
    executed by [run_dynamic]. Default tile 512. *)

val score_many :
  ?impl:Workqueue.impl ->
  ?ws:Anyseq_core.Scratch.t ->
  ?tile:int ->
  domains:int ->
  Anyseq_scoring.Scheme.t ->
  Anyseq_core.Types.mode ->
  (Anyseq_bio.Sequence.t * Anyseq_bio.Sequence.t) array ->
  Anyseq_core.Types.ends array
(** Score several pairs concurrently through one shared dynamic queue — the
    Fig. 3 scenario: tiles of all alignments interleave, so ramp-up and
    ramp-down phases of one alignment are filled by tiles of the others.
    Results are in input order. With [ws], every plan's border stripes
    come from that arena and go back to it before the call returns; the
    worker domains never touch it. *)

val score_parallel_static :
  ?tile:int ->
  domains:int ->
  Anyseq_scoring.Scheme.t ->
  Anyseq_core.Types.mode ->
  query:Anyseq_bio.Sequence.t ->
  subject:Anyseq_bio.Sequence.t ->
  Anyseq_core.Types.ends
(** Same computation under the static-barrier schedule (for the Fig. 6
    comparison and the differential tests). *)
