(* Shared plumbing for the workloads: clocks, order statistics, the metric
   sink every workload fills, run metadata, and the span arithmetic the
   traced runs use to attribute time to layers. *)

open Anyseq

(* the linear-space reference DP the correctness checks compare against *)
module Dp_linear = Anyseq_core.Dp_linear

let now () = Int64.to_float (Anyseq_util.Timer.now_ns ()) /. 1e9

(* Process CPU seconds (user + sys, every domain and thread). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of reaped children (the serve workload's server). *)
let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Quantile with linear interpolation between order statistics; q in [0,1]. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    let f = pos -. float_of_int i in
    s.(i) +. (f *. (s.(j) -. s.(i)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs
let fi = float_of_int

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- metric sink ---- *)

type sink = { mutable items : (string * (float * string)) list }

let sink () = { items = [] }

let put s name unit v =
  if List.mem_assoc name s.items then invalid_arg ("metric reported twice: " ^ name);
  s.items <- (name, (v, unit)) :: s.items

(* Every workload counts each checked operation; [fail] records why. *)
type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let tally () = { attempted = 0; failed = 0; why = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.why < 8 then t.why <- what :: t.why
  end

(* ---- run metadata ---- *)

(* Digests of the generated inputs and of the first checked outputs,
   reported in the metadata so the self-test can tell seeds apart and spot
   nondeterminism. *)
let inputs_digest = ref ""
let outputs_digest = ref ""
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let outcome_key (r : (Service.outcome, Error.t) result) =
  match r with
  | Ok o -> Printf.sprintf "%d/%d/%d" o.Service.score o.Service.query_end o.Service.subject_end
  | Error e -> Error.to_string e

(* Workload-specific figures reported in the metadata, not as metrics. *)
let extra_meta : (string * float) list ref = ref []
let meta key v = extra_meta := (key, v) :: !extra_meta

let record_outputs keys = if !outputs_digest = "" then outputs_digest := digest keys

let load1 () =
  try
    In_channel.with_open_text "/proc/loadavg" (fun ic ->
        match In_channel.input_line ic with
        | Some l -> float_of_string (List.hd (String.split_on_char ' ' l))
        | None -> -1.0)
  with _ -> -1.0

(* The checkout the benchmark runs in need not be a git repository, so the
   revision is read from [.git] when present and otherwise replaced by a
   digest of the library and CLI sources it was built from. *)
let source_rev () =
  let git_head () =
    let head = String.trim (In_channel.with_open_text ".git/HEAD" In_channel.input_all) in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" ->
        let r = String.sub head (i + 1) (String.length head - i - 1) in
        String.trim (In_channel.with_open_text (Filename.concat ".git" r) In_channel.input_all)
    | _ -> head
  in
  try "git:" ^ git_head ()
  with _ ->
    let rec files dir =
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
             else [])
    in
    try
      let b = Buffer.create 4096 in
      List.iter
        (fun p ->
          Buffer.add_string b p;
          Buffer.add_string b (Digest.to_hex (Digest.file p)))
        (files "lib" @ files "bin");
      "src:" ^ String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12
    with _ -> "unknown"

(* ---- spans ---- *)

(* Spans are drained and cleared between rounds (work joined), so the ring
   never wraps; [dropped] accumulates what a wrap would have lost. *)
type trace_acc = { mutable spans : Trace.span list; mutable dropped : int }

let trace_acc () = { spans = []; dropped = 0 }

let drain acc =
  acc.dropped <- acc.dropped + Trace.dropped ();
  acc.spans <- List.rev_append (Trace.spans ()) acc.spans;
  Trace.clear ()

let dur (s : Trace.span) = Int64.to_float (Int64.sub s.Trace.end_ns s.Trace.start_ns) /. 1e9

let int_attr (s : Trace.span) k =
  match List.assoc_opt k s.Trace.attrs with Some (Trace.Int v) -> v | _ -> 0

let str_attr (s : Trace.span) k =
  match List.assoc_opt k s.Trace.attrs with Some (Trace.Str v) -> v | _ -> ""

(* Self time per span: its duration minus its direct children's. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent <> 0 then
        Hashtbl.replace child s.Trace.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.Trace.parent)))
    spans;
  fun (s : Trace.span) ->
    Float.max 0.0 (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.Trace.id))

let named name spans = List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans

let self_s spans name =
  let self = self_times spans in
  List.fold_left (fun acc s -> acc +. self s) 0.0 (named name spans)

(* Length of the union of intervals, in seconds. *)
let covered intervals =
  let iv = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (tot, cur) (a, b) ->
        match cur with
        | None -> (tot, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (tot, Some (ca, Int64.max cb b)) else (tot +. Int64.to_float (Int64.sub cb ca), Some (a, b)))
      (0.0, None) iv
  in
  let total = match last with Some (a, b) -> total +. Int64.to_float (Int64.sub b a) | None -> total in
  total /. 1e9

(* Share of [wall] seconds on the calling domain that no library span
   covers (the benchmark's own [bench.*] spans do not count). *)
let unattributed spans ~wall =
  let me = (Domain.self () :> int) in
  let iv =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.Trace.domain = me && not (String.starts_with ~prefix:"bench." s.Trace.name) then
          Some (s.Trace.start_ns, s.Trace.end_ns)
        else None)
      spans
  in
  Float.max 0.0 (1.0 -. ratio (covered iv) wall)

(* ---- small shared helpers ---- *)

let seq_cells (a : Sequence.t) (b : Sequence.t) = Sequence.length a * Sequence.length b

let counter m name = fi (Option.value ~default:0 (Metrics.find m name))

(* Wavefront domains: long's service and the direct wavefront timings. *)
let domains = 2

let tiers = [ "bitparallel"; "banded"; "banded_cutoff"; "native"; "staged"; "simd"; "wavefront"; "traceback" ]

(* Minor words allocated so far by the whole program. [Gc.quick_stat]
   sums every domain's counts as sampled at its last minor collection;
   minor collections are global, so forcing one first makes the figure
   exact, the shard workers' allocation included. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Repeat [f] until [budget] seconds have passed (at least [min_reps]
   times); returns per-call seconds. *)
let repeat_for ~min_reps budget f =
  let t_end = now () +. budget in
  let out = ref [] in
  let n = ref 0 in
  while !n < min_reps || now () < t_end do
    let t0 = now () in
    f ();
    out := (now () -. t0) :: !out;
    incr n
  done;
  Array.of_list (List.rev !out)
