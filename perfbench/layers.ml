(* Per-layer attribution for the in-process workloads: counter deltas of
   the runtime registry and shard pool, span-derived tier and phase
   times, and direct timings of the public kernels on a workload's own
   pairs. *)

open Anyseq
open Common

(* ---- counter snapshots around the traced phase ---- *)

type snap = {
  ctr : (string * float) list;
  shard_jobs : int array;
  steals : int;
  helped : float;
  ws_created : int;
  hits : int;
  misses : int;
  minor_gcs : int;
  major_gcs : int;
}

let counters =
  [ "runtime/jobs_rejected"; "runtime/cells_computed" ]
  @ List.map (fun t -> "runtime/tier_" ^ t) tiers

let snap svc =
  Service.publish_shard_stats svc;
  let m = Service.metrics svc in
  let ss = Service.shard_stats svc in
  let cs = Service.cache_stats svc in
  let g = Gc.quick_stat () in
  {
    ctr = List.map (fun n -> (n, counter m n)) counters;
    shard_jobs = Array.map (fun (s : Service.shard_stat) -> s.Service.ss_jobs) ss;
    steals = Array.fold_left (fun a (s : Service.shard_stat) -> a + s.Service.ss_steals) 0 ss;
    helped = counter m "runtime/shard_helped";
    ws_created = (Workspace.stats ()).Workspace.created;
    hits = cs.Spec_cache.hits;
    misses = cs.Spec_cache.misses;
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
  }

let delta a b name = List.assoc name b.ctr -. List.assoc name a.ctr

(* ---- tiers from spans ---- *)

let tier_of_span (s : Trace.span) =
  match s.Trace.name with
  | "backend.myers" -> Some "bitparallel"
  | "backend.myers_banded" -> Some "banded"
  | "backend.scalar" -> Some (if str_attr s "native" = "true" then "native" else "staged")
  | "backend.simd" -> Some "simd"
  | "backend.wavefront" -> Some "wavefront"
  | "backend.traceback" -> Some "traceback"
  | _ -> None

(* Cells and self time per tier. A chunk's cells are split over its
   backend spans by job count (a capped/uncapped mix runs two); traceback
   spans carry their own cell count. *)
let tier_cells_self spans =
  let self = self_times spans in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let backends = Hashtbl.create 4096 in
  List.iter
    (fun (s : Trace.span) ->
      if tier_of_span s <> None then
        Hashtbl.replace backends s.Trace.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt backends s.Trace.parent)))
    spans;
  let cells = Hashtbl.create 8 and secs = Hashtbl.create 8 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (s : Trace.span) ->
      match tier_of_span s with
      | None -> ()
      | Some t ->
          bump secs t (self s);
          if t = "traceback" then bump cells t (fi (int_attr s "cells"))
          else begin
            match Hashtbl.find_opt by_id s.Trace.parent with
            | Some chunk when chunk.Trace.name = "service.chunk" ->
                let sibs = Option.value ~default:[ s ] (Hashtbl.find_opt backends chunk.Trace.id) in
                let jobs = List.fold_left (fun a b -> a + int_attr b "jobs") 0 sibs in
                let share = if jobs = 0 then 1.0 else fi (int_attr s "jobs") /. fi jobs in
                bump cells t (share *. fi (int_attr chunk "cells"))
            | _ -> ()
          end)
    spans;
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  (get cells, get secs)

(* The runtime block: tiers, service, spec cache, shards, workspace,
   wavefront, gc. [spans] cover the traced phase between [a] and [b],
   [rounds] rounds of identical work; counts and times are per round, so
   the deterministic ones (tier jobs) repeat exactly across runs. *)
let runtime sink ~spans ~a ~b ~rounds =
  let cells, secs = tier_cells_self spans in
  let per x = x /. fi rounds in
  let put_per name unit v = put sink name unit (per v) in
  let banded = delta a b "runtime/tier_banded" and cut = delta a b "runtime/tier_banded_cutoff" in
  let cut_share = ratio cut banded in
  List.iter
    (fun t ->
      let jobs =
        if t = "traceback" then fi (List.length (named "backend.traceback" spans))
        else delta a b ("runtime/tier_" ^ t)
      in
      (* the cutoff tier has no span of its own: its share of the banded
         span, by job count *)
      let c, s =
        if t = "banded_cutoff" then (cut_share *. cells "banded", cut_share *. secs "banded")
        else (cells t, secs t)
      in
      put_per ("tier." ^ t ^ ".jobs") "count" jobs;
      put_per ("tier." ^ t ^ ".cells") "cells" c;
      put_per ("tier." ^ t ^ ".self_s") "s" s)
    tiers;
  put_per "service.admit.self_s" "s" (self_s spans "service.admit");
  put_per "service.await.wait_s" "s" (self_s spans "service.await");
  put_per "service.rejected" "count" (delta a b "runtime/jobs_rejected");
  put sink "spec_cache.hit_rate" "frac"
    (ratio (fi (b.hits - a.hits)) (fi (b.hits - a.hits + b.misses - a.misses)));
  put_per "shard.steals" "count" (fi (b.steals - a.steals));
  put_per "shard.helped" "count" (b.helped -. a.helped);
  let jobs = Array.mapi (fun i j -> fi (j - a.shard_jobs.(i))) b.shard_jobs in
  let mean = ratio (sum jobs) (fi (Array.length jobs)) in
  put sink "shard.imbalance" "ratio" (ratio (Array.fold_left Float.max 0.0 jobs) mean);
  put_per "workspace.creates" "count" (fi (b.ws_created - a.ws_created));
  let tiles = named "wavefront.tile" spans in
  let tile_s = self_s spans "wavefront.tile" in
  let tile_wall = List.fold_left (fun acc s -> acc +. dur s) 0.0 tiles in
  let wf_wall = List.fold_left (fun acc s -> acc +. dur s) 0.0 (named "backend.wavefront" spans) in
  put_per "wavefront.tiles" "count" (fi (List.length tiles));
  put_per "wavefront.tile.self_s" "s" tile_s;
  put sink "wavefront.idle_frac" "frac"
    (if wf_wall = 0.0 then 0.0 else Float.max 0.0 (1.0 -. (tile_wall /. (fi domains *. wf_wall))));
  put_per "gc.minor_collections" "count" (fi (b.minor_gcs - a.minor_gcs));
  put_per "gc.major_collections" "count" (fi (b.major_gcs - a.major_gcs))

(* Spec-cache build time: the [cache.build] spans of one traced set-up.
   Returns the spans the trace ring dropped. *)
let cache_build sink setup =
  let acc = trace_acc () in
  Trace.enable ();
  setup ();
  Trace.disable ();
  drain acc;
  put sink "spec_cache.build_s" "s"
    (List.fold_left (fun t s -> t +. dur s) 0.0 (named "cache.build" acc.spans));
  acc.dropped

(* ---- direct kernel timings ---- *)

let kernels_of =
  let cache = Spec_cache.create () in
  fun scheme mode -> Spec_cache.get cache scheme mode

(* ns per cell of [f] over [items], repeated for at least 0.3 s. *)
let ns_per_cell name items cells f =
  if items = [] then 0.0
  else begin
    let total = List.fold_left (fun acc x -> acc + cells x) 0 items in
    let times =
      Trace.with_span ("bench.kernel." ^ name) (fun () ->
          repeat_for ~min_reps:2 0.3 (fun () -> Workspace.with_ws (fun ws -> List.iter (f ws) items)))
    in
    median times *. 1e9 /. fi total
  end

type kpair = { scheme : Scheme.t; mode : Types.mode; q : Sequence.t; s : Sequence.t; cap : int option }

let kcells k = seq_cells k.q k.s

let native_nk k =
  match (kernels_of k.scheme k.mode).Spec_cache.native with
  | Some nk -> nk
  | None -> failwith "no native kernel for a benchmark configuration"

let bp k =
  match (kernels_of k.scheme k.mode).Spec_cache.bitparallel with
  | Some bp -> bp
  | None -> failwith "no bit-parallel kernel for a benchmark configuration"

(* The five kernel metrics; a list left empty reads 0. *)
let kernels sink ~native ~myers ~banded ~traceback ~wavefront =
  put sink "kernel.native.ns_per_cell" "ns"
    (ns_per_cell "native" native kcells (fun ws k ->
         ignore ((native_nk k).Native_kernel.score ~ws ~query:k.q ~subject:k.s)));
  put sink "kernel.myers.ns_per_cell" "ns"
    (ns_per_cell "myers" myers kcells (fun ws k ->
         ignore ((bp k).Bitparallel.bp_score ~ws ~query:k.q ~subject:k.s)));
  put sink "kernel.myers_banded.ns_per_cell" "ns"
    (ns_per_cell "myers_banded" banded kcells (fun ws k ->
         ignore
           ((bp k).Bitparallel.bp_score_upto ~ws ~max_dist:(Option.get k.cap) ~query:k.q
              ~subject:k.s)));
  put sink "kernel.traceback.ns_per_cell" "ns"
    (ns_per_cell "traceback" traceback kcells (fun ws k ->
         ignore ((native_nk k).Native_kernel.align ~ws ~query:k.q ~subject:k.s)));
  put sink "kernel.wavefront.ns_per_cell" "ns"
    (ns_per_cell "wavefront" wavefront kcells (fun _ k ->
         ignore (Scheduler.score_many ~domains k.scheme k.mode [| (k.q, k.s) |])))

(* Metrics a workload does not exercise read 0. *)
let zeros sink names = List.iter (fun (n, u) -> put sink n u 0.0) names

let serve_zeros =
  [ ("wire.encode_ns", "ns"); ("wire.decode_ns", "ns"); ("wire.reply_encode_ns", "ns");
    ("wire.bytes_per_req", "B"); ("batcher.mean_batch", "jobs");
    ("server.queue_rejected", "count"); ("server.replies_dropped", "count");
    ("gen.late_p99_ms", "ms"); ("gen.backlog_max", "count"); ("max_rps", "1/s") ]
  @ List.concat_map
      (fun r -> [ (r ^ ".p50_ms", "ms"); (r ^ ".p99_ms", "ms"); (r ^ ".samples", "count"); (r ^ ".valid", "frac") ])
      [ "r1"; "r2"; "r3" ]
  @ List.concat_map
      (fun st -> [ ("server.stage." ^ st ^ ".p50_us", "us"); ("server.stage." ^ st ^ ".p99_us", "us") ])
      [ "decode"; "admit"; "queue"; "execute"; "reply" ]

let network_zeros =
  [ ("seqio.fasta_fold_s", "s"); ("minimizer.sketch_ns_per_bp", "ns"); ("index.add_s", "s");
    ("index.postings", "count"); ("index.prune_frac", "frac"); ("network.index.self_s", "s");
    ("network.align.self_s", "s"); ("network.cluster.self_s", "s");
    ("network.cutoff_frac", "frac"); ("network.resubmits", "count");
    ("network.evictions", "count"); ("edges.spilled_runs", "count") ]
