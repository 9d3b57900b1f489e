(* Workload [serve]: an open-loop generator driving `anyseq serve` (a
   child process) over two Unix-socket connections with 150 bp score-only
   requests under two configurations.

   One generator thread multiplexes both connections with [select]: it
   sends every request at its due time on a fixed arrival schedule and
   times each reply from when the request was due, so a slow server shows
   as latency rather than as a slower schedule. Phases: closed-loop
   saturation bursts on the set-up server, interleaved with slices of
   three fixed rates on a fresh one; in traced runs, then a rising rate
   ladder on a third. *)

open Anyseq
open Common

(* A round figure just under this workload's saturation on a 2-core
   machine (5,200-6,900 req/s measured), in requests per second; the
   fixed rates are 25/50/75% of it. *)
let sat_rps = 5000.0
let rates = [ ("r1", 0.25); ("r2", 0.50); ("r3", 0.75) ]

(* The ladder climbs from 60% of [sat_rps] in 10% steps; a step passes
   when its p99 (from due time) stays within [limit_ms] and the last third
   of its replies is not markedly slower than the first (no growing
   backlog). *)
let ladder = [ 0.6; 0.7; 0.8; 0.9; 1.0; 1.1; 1.2 ]
let limit_ms = 50.0

(* A step whose own sends ran more than [late_limit_ms] behind schedule
   (p99) measured the generator, not the server: it is invalid. *)
let late_limit_ms = 10.0

let pool_size = 2048

let configs =
  [|
    Wire.default_config;
    { Wire.default_config with scheme = Wire.Named (Scheme.to_string Scheme.wildcard_affine); mode = Types.Local };
  |]

type req = { cfg : int; query : string; subject : string; expect : Types.ends }

let pool seed =
  let pairs = Read_sim.read_pairs ~seed ~reference_len:200_000 ~read_len:150 ~count:pool_size in
  let svc = Service.create ~capacity:pool_size () in
  let resolved = Array.map (fun c -> Result.get_ok (Wire.resolve_config c)) configs in
  let reqs =
    Array.mapi
      (fun i (q, s) -> (i mod Array.length configs, Sequence.to_string q, Sequence.to_string s))
      pairs
  in
  (* the expected answers: a direct Service.run of the same jobs *)
  let direct =
    Service.run svc
      (Array.map (fun (c, query, subject) -> Service.job ~config:resolved.(c) ~query ~subject ()) reqs)
  in
  Service.shutdown svc;
  Array.mapi
    (fun i (cfg, query, subject) ->
      match direct.(i) with
      | Ok o ->
          {
            cfg;
            query;
            subject;
            expect = { Types.score = o.Service.score; query_end = o.Service.query_end; subject_end = o.Service.subject_end };
          }
      | Error e -> failwith ("serve: reference job failed: " ^ Error.to_string e))
    reqs

(* ---- the server child ---- *)

type child = { pid : int; out : in_channel; sock : Addr.t; admin : Addr.t }

let spawn ~exe ~work k =
  let sock = Addr.Unix_socket (Filename.concat work (Printf.sprintf "s%d.sock" k)) in
  let admin = Addr.Unix_socket (Filename.concat work (Printf.sprintf "a%d.sock" k)) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--listen"; Addr.to_string sock; "--admin"; Addr.to_string admin; "--shards"; "2" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  (* ready once both listeners are announced *)
  let rec wait_for prefix =
    match In_channel.input_line out with
    | Some l when String.starts_with ~prefix l -> ()
    | Some _ -> wait_for prefix
    | None -> failwith "serve: server exited during start-up"
  in
  wait_for "admin endpoint";
  { pid; out; sock; admin }

let live = ref []

let stop c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (In_channel.input_all c.out);
  close_in c.out;
  ignore (Unix.waitpid [] c.pid);
  live := List.filter (fun p -> p <> c.pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let connect c =
  match Addr.connect c.sock with Ok fd -> fd | Error e -> failwith ("serve: connect: " ^ e)

(* Start a server and answer one request per configuration. *)
let start ~exe ~work pool k =
  let c = spawn ~exe ~work k in
  live := c.pid :: !live;
  let conns = [| connect c; connect c |] in
  Array.iteri
    (fun i _ ->
      let r = pool.(i) in
      let frame =
        Wire.encode_request
          { Wire.id = Int64.of_int (-1 - i); config = configs.(r.cfg); timeout_s = None; query = r.query; subject = r.subject; trace = None }
      in
      match Wire.write_frame conns.(0) frame with
      | Error e -> failwith ("serve: warm-up: " ^ e)
      | Ok () -> (
          match Wire.read_frame conns.(0) with
          | Ok (Wire.Reply _) -> ()
          | _ -> failwith "serve: warm-up reply"))
    configs;
  (c, conns)

let http c path =
  match Admin.http_get c.admin path with
  | Ok (200, body) -> body
  | Ok (st, _) -> failwith (Printf.sprintf "serve: admin %s: status %d" path st)
  | Error e -> failwith ("serve: admin: " ^ e)

(* Prometheus samples: name (labels included) -> value. *)
let scrape c =
  String.split_on_char '\n' (http c "/metrics")
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.rindex_opt l ' ' with
           | Some i -> Some (String.sub l 0 i, float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
           | None -> None)

let sample m name = Option.value ~default:0.0 (List.assoc_opt name m)

let sample_prefix m prefix =
  List.filter_map (fun (n, v) -> if String.starts_with ~prefix n then Some v else None) m

(* ---- the generator ---- *)

type phase = {
  lat_ms : float array;  (** per reply, from due time *)
  rtt_ms : float array;  (** per reply, from send time *)
  late_ms : float array;  (** per request, send time minus due time *)
  backlog_max : int;  (** most requests overdue at once *)
  elapsed : float;
  n : int;
  failed : int;  (** replies that were errors or wrong *)
}

let next_id = ref 0

(* Drive [n] requests through [conns]: [`Rate r] sends request [i] at
   [i / r] seconds after start; [`Window w] keeps [w] in flight. Every
   reply is checked against the pool's expected answer. *)
let drive conns pool tally ~mode ~n =
  let base = !next_id in
  next_id := base + n;
  let due = Array.make n 0.0 and sent = Array.make n 0.0 in
  let lat = Array.make n 0.0 and rtt = Array.make n 0.0 in
  let got = ref 0 and next = ref 0 and backlog = ref 0 and failed = ref 0 in
  let t0 = now () in
  let send i =
    let r = pool.((base + i) mod pool_size) in
    let fd = conns.(i mod Array.length conns) in
    let frame =
      Wire.encode_request
        { Wire.id = Int64.of_int (base + i); config = configs.(r.cfg); timeout_s = None; query = r.query; subject = r.subject; trace = None }
    in
    sent.(i) <- now ();
    match Wire.write_frame fd frame with
    | Ok () -> ()
    | Error e -> failwith ("serve: send: " ^ e)
  in
  let last_reply = ref t0 in
  while !got < n do
    let t = now () in
    (match mode with
    | `Rate r ->
        let overdue = min n (int_of_float ((t -. t0) *. r) + 1) - !next in
        if overdue > !backlog then backlog := overdue;
        while !next < n && t0 +. (fi !next /. r) <= now () do
          due.(!next) <- t0 +. (fi !next /. r);
          send !next;
          incr next
        done
    | `Window w ->
        while !next < n && !next - !got < w do
          due.(!next) <- now ();
          send !next;
          incr next
        done);
    let timeout =
      match mode with
      | `Rate r when !next < n -> Float.max 0.0 (t0 +. (fi !next /. r) -. now ())
      | _ -> 0.5
    in
    let readable, _, _ = Unix.select (Array.to_list conns) [] [] timeout in
    List.iter
      (fun fd ->
        match Wire.read_frame fd with
        | Ok (Wire.Reply rep) ->
            let at = now () in
            last_reply := at;
            let i = Int64.to_int rep.Wire.rid - base in
            let r = pool.((base + i) mod pool_size) in
            let ok =
              match rep.Wire.payload with
              | Wire.Result { score; query_end; subject_end; _ } ->
                  score = r.expect.Types.score && query_end = r.expect.Types.query_end
                  && subject_end = r.expect.Types.subject_end
              | Wire.Failure _ -> false
            in
            check tally ok "serve: reply differs from a direct Service.run";
            if not ok then incr failed;
            lat.(i) <- (at -. due.(i)) *. 1e3;
            rtt.(i) <- (at -. sent.(i)) *. 1e3;
            incr got
        | Ok (Wire.Request _) -> failwith "serve: request frame from the server"
        | Error _ -> failwith "serve: connection failed")
      readable;
    if now () -. !last_reply > 10.0 then failwith "serve: no reply for 10 s"
  done;
  {
    lat_ms = lat;
    rtt_ms = rtt;
    late_ms = Array.mapi (fun i d -> (sent.(i) -. d) *. 1e3) due;
    backlog_max = !backlog;
    elapsed = now () -. t0;
    n;
    failed = !failed;
  }

let at_rate conns pool tally ~rate ~secs =
  drive conns pool tally ~mode:(`Rate rate) ~n:(max 20 (int_of_float (rate *. secs)))

(* One phase out of consecutive slices of equal length. *)
let concat ps =
  let cat f = Array.concat (List.map f ps) in
  {
    lat_ms = cat (fun p -> p.lat_ms);
    rtt_ms = cat (fun p -> p.rtt_ms);
    late_ms = cat (fun p -> p.late_ms);
    backlog_max = List.fold_left (fun a p -> max a p.backlog_max) 0 ps;
    elapsed = List.fold_left (fun a p -> a +. p.elapsed) 0.0 ps;
    n = List.fold_left (fun a p -> a + p.n) 0 ps;
    failed = List.fold_left (fun a p -> a + p.failed) 0 ps;
  }

let report name p =
  Printf.eprintf "serve: %s x %d: p50 %.2f ms, p99 %.2f ms, late p99 %.2f ms, backlog max %d\n%!"
    name p.n (quantile p.lat_ms 0.5) (quantile p.lat_ms 0.99) (quantile p.late_ms 0.99) p.backlog_max

(* The fixed rates run in [cycles] slices each, interleaved with the
   saturation bursts over the whole run. *)
let cycles = 10

let valid_lateness late = quantile late 0.99 <= late_limit_ms
let valid p = valid_lateness p.late_ms

(* The slices of a fixed rate's phase (equal lengths, in order) whose
   generator kept to its schedule. *)
let slice p xs k = Array.sub xs (k * (p.n / cycles)) (p.n / cycles)
let valid_slices p = List.filter (fun k -> valid_lateness (slice p p.late_ms k)) (List.init cycles Fun.id)

(* A latency quantile of a fixed rate: that of its least-disturbed valid
   slice. The steal time of the shared machine comes and goes over
   seconds and can multiply latency at low load several times over for
   a whole slice; a change to the server moves every slice. *)
let tail p q =
  let ks = match valid_slices p with [] -> List.init cycles Fun.id | ks -> ks in
  List.fold_left (fun a k -> Float.min a (quantile (slice p p.lat_ms k) q)) infinity ks

(* A ladder step passes when every reply was right (a failed request
   misses any limit), its p99 is within the limit and its backlog did not
   grow over the step. *)
let passes p =
  let third = p.n / 3 in
  let part a = Array.sub p.lat_ms a third in
  p.failed = 0
  && quantile p.lat_ms 0.99 <= limit_ms
  && median (part (p.n - third)) <= (2.0 *. median (part 0)) +. 1.0

(* ---- direct wire timings ---- *)

let wire sink pool =
  let reqs =
    Array.mapi
      (fun i r ->
        { Wire.id = Int64.of_int i; config = configs.(r.cfg); timeout_s = None; query = r.query; subject = r.subject; trace = None })
      pool
  in
  let per_req secs = median secs *. 1e9 /. fi (Array.length reqs) in
  let frames = ref [||] in
  put sink "wire.encode_ns" "ns"
    (per_req (repeat_for ~min_reps:3 0.2 (fun () -> frames := Array.map Wire.encode_request reqs)));
  let payloads =
    Array.map (fun f -> String.sub f Wire.header_bytes (String.length f - Wire.header_bytes)) !frames
  in
  put sink "wire.decode_ns" "ns"
    (per_req (repeat_for ~min_reps:3 0.2 (fun () -> Array.iter (fun p -> ignore (Wire.decode_request_view p)) payloads)));
  let replies =
    Array.mapi
      (fun i r ->
        {
          Wire.rid = Int64.of_int i;
          payload = Wire.Result { score = r.expect.Types.score; query_end = r.expect.Types.query_end; subject_end = r.expect.Types.subject_end; cigar = None };
          queue_ns = 1000L;
          service_ns = 20000L;
          batch_jobs = 16;
        })
      pool
  in
  put sink "wire.reply_encode_ns" "ns"
    (per_req (repeat_for ~min_reps:3 0.2 (fun () -> Array.iter (fun r -> ignore (Wire.encode_reply r)) replies)));
  put sink "wire.bytes_per_req" "B"
    (fi (Array.fold_left (fun a f -> a + String.length f) 0 !frames) /. fi (Array.length reqs))

(* ---- the workload ---- *)

let cells_per_req pool =
  fi (Array.fold_left (fun a r -> a + (String.length r.query * String.length r.subject)) 0 pool)
  /. fi (Array.length pool)

let run ~seed ~seconds ~trace ~exe ~work sink tally =
  let pool = pool seed in
  inputs_digest := digest (Array.to_list (Array.map (fun r -> r.query ^ "/" ^ r.subject) pool));
  record_outputs (Array.to_list (Array.map (fun r -> Printf.sprintf "%d/%d/%d" r.expect.Types.score r.expect.Types.query_end r.expect.Types.subject_end) pool));
  (* set-up: server start until it has answered one request per
     configuration; the median of fifteen (see [Loop.setup_median]) *)
  let k = ref 0 in
  let make () =
    incr k;
    start ~exe ~work pool !k
  in
  let (sat_child, sat_conns), first = Loop.setup_once make in
  let slot = seconds /. 10.0 in
  let sat_n = max 100 (int_of_float (sat_rps *. 1.5 *. slot)) in
  (* the fixed rates go to a fresh server, whose whole life is then a
     fixed amount of work: its CPU time and counters belong to them; the
     saturation bursts go to the set-up server *)
  let child, conns = make () in
  let before = if trace then scrape child else [] in
  let rounds =
    List.init cycles (fun _ ->
        let burst = drive sat_conns pool tally ~mode:(`Window 128) ~n:(sat_n / cycles) in
        let slices =
          List.map (fun (_, frac) -> at_rate conns pool tally ~rate:(frac *. sat_rps) ~secs:(2.0 *. slot /. fi cycles)) rates
        in
        (burst, slices))
  in
  (* saturation: the median rate of the closed-loop bursts (single bursts
     swing by a fifth either way) *)
  let sat_rate = median (Array.of_list (List.map (fun (p, _) -> fi p.n /. p.elapsed) rounds)) in
  let fixed =
    List.mapi (fun i (name, _) -> (name, concat (List.map (fun (_, sl) -> List.nth sl i) rounds))) rates
  in
  List.iter (fun (name, p) -> report name p) fixed;
  let status = if trace then http child "/statusz" else "" in
  let after = scrape child in
  Array.iter Unix.close sat_conns;
  stop sat_child;
  let cpu0 = child_cpu () in
  Array.iter Unix.close conns;
  stop child;
  let cpu_s = child_cpu () -. cpu0 in
  let replies = List.fold_left (fun a (_, p) -> a + p.n) 0 fixed in
  let r1 = List.assoc "r1" fixed in
  List.iter
    (fun (name, p) ->
      meta (name ^ "_late_p99_ms") (quantile p.late_ms 0.99);
      meta (name ^ "_valid_slices") (fi (List.length (valid_slices p))))
    fixed;
  if not trace then begin
    let setup_s =
      Loop.setup_median ~reps:15
        ~release:(fun (c, conns) ->
          Array.iter Unix.close conns;
          stop c)
        ~first make
    in
    (* a p50 the generator's own lateness moved is not the server's *)
    check tally (valid_slices r1 <> []) "serve: the generator fell behind its schedule in every r1 slice";
    put sink "setup_s" "s" setup_s;
    put sink "gcups" "GCUPS" (sat_rate *. cells_per_req pool /. 1e9);
    put sink "pairs_per_s" "1/s" sat_rate;
    put sink "cpu_s" "s" cpu_s;
    put sink "p50_ms" "ms" (tail r1 0.5);
    (* the server's Gc.quick_stat: every domain, each as of its last
       minor collection *)
    put sink "minor_words_per_op" "words" (sample after "anyseq_gc_minor_words" /. fi replies);
    (* the server exposes its current major heap, not its peak: the heap
       after the fixed-rate phases stands in for it *)
    put sink "heap_mb" "MB" (sample after "anyseq_gc_heap_words" *. 8.0 /. 1e6)
  end
  else begin
    let child2, conns2 = make () in
    let max_rps = ref 0.0 and steps = ref [] in
    (try
       List.iter
         (fun frac ->
           let rate = frac *. sat_rps in
           let p = at_rate conns2 pool tally ~rate ~secs:(0.5 *. slot) in
           report (Printf.sprintf "%.0f req/s" rate) p;
           steps := p :: !steps;
           if valid p then if passes p then max_rps := rate else raise Exit)
         ladder
     with Exit -> ());
    let m2 = scrape child2 in
    Array.iter Unix.close conns2;
    stop child2;
    List.iter
      (fun (name, p) ->
        put sink (name ^ ".p50_ms") "ms" (tail p 0.5);
        put sink (name ^ ".p99_ms") "ms" (tail p 0.99);
        put sink (name ^ ".samples") "count" (fi p.n);
        put sink (name ^ ".valid") "frac" (fi (List.length (valid_slices p)) /. fi cycles))
      fixed;
    put sink "max_rps" "1/s" !max_rps;
    let gen = List.map snd fixed @ !steps in
    put sink "gen.late_p99_ms" "ms" (List.fold_left (fun a p -> Float.max a (quantile p.late_ms 0.99)) 0.0 gen);
    put sink "gen.backlog_max" "count" (fi (List.fold_left (fun a p -> max a p.backlog_max) 0 gen));
    wire sink pool;
    (* server-side layers: stage histograms, batcher, admission, tiers
       over the fixed-rate phases *)
    let doc = Result.get_ok (Jsonv.parse status) in
    let stages = Option.get (Jsonv.member "stages" doc) in
    List.iter
      (fun st ->
        let h = Option.get (Jsonv.member st stages) in
        put sink ("server.stage." ^ st ^ ".p50_us") "us" (Jsonv.num "p50_us" h);
        put sink ("server.stage." ^ st ^ ".p99_us") "us" (Jsonv.num "p99_us" h))
      [ "decode"; "admit"; "queue"; "execute"; "reply" ];
    let d name = sample after name -. sample before name in
    put sink "batcher.mean_batch" "jobs"
      (ratio (sample after "anyseq_server_batch_jobs_sum") (sample after "anyseq_server_batch_jobs_count"));
    put sink "server.queue_rejected" "count"
      (sample after "anyseq_server_queue_rejected" +. sample m2 "anyseq_server_queue_rejected");
    put sink "server.replies_dropped" "count"
      (sample after "anyseq_server_replies_dropped" +. sample m2 "anyseq_server_replies_dropped");
    let cells = d "anyseq_runtime_cells_computed" in
    let tier_jobs = List.map (fun t -> (t, d ("anyseq_runtime_tier_" ^ t))) tiers in
    let all_jobs = sum (Array.of_list (List.map snd tier_jobs)) in
    (* per 1000 fixed-rate requests; the server is not traced, so tier
       self time is not available here *)
    let per_k x = x *. 1000.0 /. fi replies in
    List.iter
      (fun (t, j) ->
        put sink ("tier." ^ t ^ ".jobs") "count" (per_k j);
        put sink ("tier." ^ t ^ ".cells") "cells" (per_k (cells *. ratio j all_jobs));
        put sink ("tier." ^ t ^ ".self_s") "s" 0.0)
      tier_jobs;
    put sink "service.admit.self_s" "s" (per_k (d "anyseq_runtime_admit_us_sum" /. 1e6));
    put sink "service.await.wait_s" "s" 0.0;
    put sink "service.rejected" "count" (per_k (d "anyseq_runtime_jobs_rejected"));
    let hits = d "anyseq_runtime_cache_hits" and misses = d "anyseq_runtime_cache_misses" in
    put sink "spec_cache.hit_rate" "frac" (ratio hits (hits +. misses));
    put sink "spec_cache.build_s" "s" 0.0;
    put sink "shard.steals" "count" (per_k (d "anyseq_runtime_shard_steals"));
    put sink "shard.helped" "count" (per_k (d "anyseq_runtime_shard_helped"));
    let sj = Array.of_list (List.map2 ( -. ) (sample_prefix after "anyseq_runtime_shard_jobs{") (sample_prefix before "anyseq_runtime_shard_jobs{")) in
    put sink "shard.imbalance" "ratio" (ratio (Array.fold_left Float.max 0.0 sj) (ratio (sum sj) (fi (Array.length sj))));
    put sink "workspace.creates" "count" (per_k (d "anyseq_ws_arenas_created"));
    put sink "wavefront.tiles" "count" 0.0;
    put sink "wavefront.tile.self_s" "s" 0.0;
    put sink "wavefront.idle_frac" "frac" 0.0;
    put sink "gc.minor_collections" "count" 0.0;
    put sink "gc.major_collections" "count" (per_k (d "anyseq_gc_major_collections"));
    (* the server child runs untraced: neither figure is measured here *)
    put sink "trace.overhead_frac" "ratio" 0.0;
    put sink "trace.dropped" "count" 0.0;
    (* request time no server stage covers: wire transit and client *)
    let stage_s =
      List.fold_left
        (fun a st -> a +. sample after ("anyseq_server_stage_" ^ st ^ "_us_sum") -. sample before ("anyseq_server_stage_" ^ st ^ "_us_sum"))
        0.0 [ "decode"; "admit"; "queue"; "execute"; "reply" ]
      /. 1e3
    in
    let rtt = sum (Array.concat (List.map (fun (_, p) -> p.rtt_ms) fixed)) in
    put sink "unattributed_frac" "frac" (Float.max 0.0 (1.0 -. ratio stage_s rtt));
    let resolved = Array.map (fun c -> Result.get_ok (Wire.resolve_config c)) configs in
    let kp =
      List.init 64 (fun i ->
          let r = pool.(i) in
          let cfg = resolved.(r.cfg) in
          let seq s = Sequence.of_string (Scheme.alphabet cfg.Config.scheme) s in
          { Layers.scheme = cfg.Config.scheme; mode = cfg.Config.mode; q = seq r.query; s = seq r.subject; cap = None })
    in
    Layers.kernels sink ~native:kp ~myers:[] ~banded:[] ~traceback:[] ~wavefront:[];
    Layers.zeros sink Layers.network_zeros
  end
