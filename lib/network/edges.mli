(** Edge-list spill writer: bounded memory, sorted runs on disk, a
    k-way merge of bounded fan-in into the final TSV.

    An edge is an undirected scored pair [(a, b)], [a < b]. {!add}
    buffers edges; when the buffer fills, it is sorted by [(a, b)] and
    written to a temporary run file of fixed-size binary records, so
    peak memory is one buffer regardless of edge count. {!finish}
    merge-sorts the runs (read back in fixed-size chunks, at most
    {!merge_fan_in} at a time) plus the residual buffer into the output
    TSV, dropping exact [(a, b)] duplicates — the pipeline records each
    surviving hit from both endpoints' top-k heaps, so every edge arrives
    at most twice and the merge keeps the first.

    The TSV is EFI-filterblast-compatible in spirit: one edge per line,
    [query-id TAB subject-id TAB percent-identity TAB length TAB score],
    no header, sorted by the (query, subject) {e index} pair — a stable,
    diff-friendly order that the network gate compares byte-for-byte. *)

type edge = {
  a : int;  (** smaller sequence index *)
  b : int;  (** larger sequence index *)
  score : int;
  ident : float;  (** normalized identity in [0,1]; printed as percent *)
  span : int;  (** max of the two sequence lengths — the length column *)
}

type t

val default_buffer : int
(** 65536 edges (~3 MB) per in-memory run. *)

val create : ?buffer:int -> tmp_dir:string -> unit -> t
(** [buffer] (default {!default_buffer}) edges held in memory between
    spills. Run files are created under [tmp_dir] and deleted by
    {!finish}. *)

val add : t -> edge -> unit

val buffered : t -> int

val runs : t -> int
(** Run files spilled so far. *)

type stats = { written : int; duplicates : int; spilled_runs : int }

val merge_fan_in : int
(** At most this many run files are open at once: {!finish} merges more
    runs than that in passes, through intermediate run files. *)

val finish :
  t -> out:string -> name:(int -> string) -> f:(edge -> unit) -> stats
(** Merge runs and buffer into [out] (TSV, ids rendered via [name]),
    calling [f] on every surviving edge in order — the hook the
    clustering pass consumes, so components never need the file re-read.
    Deletes the run files. The writer is spent afterwards. *)
