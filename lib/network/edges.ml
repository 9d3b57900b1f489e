type edge = { a : int; b : int; score : int; ident : float; span : int }

let compare_edge x y = if x.a <> y.a then compare x.a y.a else compare x.b y.b

type t = {
  tmp_dir : string;
  buffer : edge array;  (** fixed capacity; [len] is the fill level *)
  mutable len : int;
  mutable run_files : string list;  (** every run file not yet removed, newest first *)
  mutable next_run : int;  (** numbers run file names *)
  mutable spent : bool;
}

let default_buffer = 65536

(* Run files hold fixed-size binary records: five little-endian 64-bit
   fields, the identity as its IEEE bits, so a spill-and-merge pipeline
   is bit-identical to an in-memory one. *)
let record_bytes = 40

(* Records decoded per read while merging: memory per run stays one
   chunk however long the run is (and a short run's own size). *)
let chunk_records = 4096

let encode buf off e =
  Bytes.set_int64_le buf off (Int64.of_int e.a);
  Bytes.set_int64_le buf (off + 8) (Int64.of_int e.b);
  Bytes.set_int64_le buf (off + 16) (Int64.of_int e.score);
  Bytes.set_int64_le buf (off + 24) (Int64.bits_of_float e.ident);
  Bytes.set_int64_le buf (off + 32) (Int64.of_int e.span)

let decode buf off =
  {
    a = Int64.to_int (Bytes.get_int64_le buf off);
    b = Int64.to_int (Bytes.get_int64_le buf (off + 8));
    score = Int64.to_int (Bytes.get_int64_le buf (off + 16));
    ident = Int64.float_of_bits (Bytes.get_int64_le buf (off + 24));
    span = Int64.to_int (Bytes.get_int64_le buf (off + 32));
  }

let create ?(buffer = default_buffer) ~tmp_dir () =
  if buffer < 1 then invalid_arg "Edges.create: buffer must be positive";
  {
    tmp_dir;
    buffer = Array.make buffer { a = 0; b = 0; score = 0; ident = 0.0; span = 0 };
    len = 0;
    run_files = [];
    next_run = 0;
    spent = false;
  }

let buffered t = t.len
let runs t = List.length t.run_files

(* A new run file's path, registered before the file is created so that
   [finish] removes it whatever happens. *)
let new_run t =
  let path =
    Filename.concat t.tmp_dir
      (Printf.sprintf "anyseq-net-run-%d-%d.bin" (Unix.getpid ()) t.next_run)
  in
  t.next_run <- t.next_run + 1;
  t.run_files <- path :: t.run_files;
  path

(* Create the run file at [path]; [f emit] writes its records, in order,
   through [emit]. *)
let write_run path f =
  let record = Bytes.create record_bytes in
  Out_channel.with_open_bin path (fun oc ->
      f (fun e ->
          encode record 0 e;
          Out_channel.output_bytes oc record))

let spill t =
  if t.len > 0 then begin
    let slice = Array.sub t.buffer 0 t.len in
    Array.sort compare_edge slice;
    write_run (new_run t) (fun emit -> Array.iter emit slice);
    t.len <- 0
  end

let add t e =
  if t.spent then invalid_arg "Edges.add: writer already finished";
  if e.a >= e.b then invalid_arg "Edges.add: edge must satisfy a < b";
  if t.len = Array.length t.buffer then spill t;
  t.buffer.(t.len) <- e;
  t.len <- t.len + 1

type stats = { written : int; duplicates : int; spilled_runs : int }

(* A merge source: [items.(pos)] is its head while [pos < len]; [refill]
   reloads [items] from the start and returns the new fill, 0 once the
   source is exhausted. *)
type cursor = {
  items : edge array;
  mutable pos : int;
  mutable len : int;
  refill : edge array -> int;
}

let advance c =
  c.pos <- c.pos + 1;
  if c.pos = c.len then begin
    c.len <- c.refill c.items;
    c.pos <- 0
  end

(* Fill [buf] from [ic]; short only at end of file. *)
let rec read_full ic buf off =
  if off = Bytes.length buf then off
  else
    match In_channel.input ic buf off (Bytes.length buf - off) with
    | 0 -> off
    | got -> read_full ic buf (off + got)

let run_cursor ic =
  let records = max 1 (min chunk_records (Int64.to_int (In_channel.length ic) / record_bytes)) in
  let chunk = Bytes.create (records * record_bytes) in
  let refill items =
    let bytes = read_full ic chunk 0 in
    if bytes mod record_bytes <> 0 then failwith "Edges: truncated run file";
    let n = bytes / record_bytes in
    for i = 0 to n - 1 do
      items.(i) <- decode chunk (i * record_bytes)
    done;
    n
  in
  let items = Array.make records { a = 0; b = 0; score = 0; ident = 0.0; span = 0 } in
  { items; pos = 0; len = refill items; refill }

let buffer_cursor sorted =
  { items = sorted; pos = 0; len = Array.length sorted; refill = (fun _ -> 0) }

(* TSV lines are built in one buffer and written out in blocks. *)
let flush_at = 65536

(* Identities repeat (a pair's is a ratio of small integers), so each
   distinct value is formatted once. The cache is keyed by the float's
   bits: 0.0 and -0.0 print differently. *)
let percent_text cache ident =
  let key = Int64.bits_of_float ident in
  match Hashtbl.find_opt cache key with
  | Some text -> text
  | None ->
      let text = Printf.sprintf "%.2f" (100.0 *. ident) in
      Hashtbl.add cache key text;
      text

let add_line buf cache ~name e =
  Buffer.add_string buf (name e.a);
  Buffer.add_char buf '\t';
  Buffer.add_string buf (name e.b);
  Buffer.add_char buf '\t';
  Buffer.add_string buf (percent_text cache e.ident);
  Buffer.add_char buf '\t';
  Buffer.add_string buf (string_of_int e.span);
  Buffer.add_char buf '\t';
  Buffer.add_string buf (string_of_int e.score);
  Buffer.add_char buf '\n'

(* Stable k-way merge: repeatedly emit the smallest head; on equal keys
   the earliest source wins. At most [merge_fan_in] + 1 sources, so a
   linear scan per pop is fine. *)
let merge sources emit =
  let cursors = Array.of_list (List.filter (fun c -> c.len > 0) sources) in
  let live = ref (Array.length cursors) in
  while !live > 0 do
    let best = ref 0 in
    for i = 1 to !live - 1 do
      let c = cursors.(i) and bc = cursors.(!best) in
      if compare_edge c.items.(c.pos) bc.items.(bc.pos) < 0 then best := i
    done;
    let c = cursors.(!best) in
    emit c.items.(c.pos);
    advance c;
    if c.len = 0 then begin
      Array.blit cursors (!best + 1) cursors !best (!live - !best - 1);
      decr live
    end
  done

(* Runs open at once: one descriptor and one read chunk each. *)
let merge_fan_in = 32

(* Open [paths] one by one inside the protected region, so that a failed
   open (EMFILE) still closes the runs opened before it. *)
let with_runs paths f =
  let opened = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter In_channel.close !opened)
    (fun () ->
      f
        (List.map
           (fun path ->
             let ic = In_channel.open_bin path in
             opened := ic :: !opened;
             run_cursor ic)
           paths))

let remove path = try Sys.remove path with Sys_error _ -> ()

let rec groups k = function
  | [] -> []
  | l ->
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let g, rest = take k [] l in
      g :: groups k rest

(* Merge passes over consecutive groups of at most [merge_fan_in] runs,
   in spill order, until one pass can take them all. Each merged run
   keeps its group's place in that order and every record (duplicates
   included), so the final pass sees the same sequence of edges as a
   single merge over all runs would. *)
let rec reduce t runs =
  if List.length runs <= merge_fan_in then runs
  else
    reduce t
      (List.map
         (fun group ->
           let path = new_run t in
           with_runs group (fun cursors -> write_run path (merge cursors));
           List.iter remove group;
           path)
         (groups merge_fan_in runs))

(* The final pass merges the runs, then the sorted residual buffer; a
   key equal to the last one emitted is a duplicate. *)
let finish t ~out ~name ~f =
  if t.spent then invalid_arg "Edges.finish: writer already finished";
  t.spent <- true;
  let spilled_runs = List.length t.run_files in
  let residual = Array.sub t.buffer 0 t.len in
  Array.sort compare_edge residual;
  let written = ref 0 and duplicates = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter remove t.run_files;
      t.run_files <- [])
    (fun () ->
      let runs = reduce t (List.rev t.run_files) in
      let buf = Buffer.create (2 * flush_at) and cache = Hashtbl.create 256 in
      let last_a = ref 0 and last_b = ref 0 and first = ref true in
      Out_channel.with_open_text out (fun oc ->
          with_runs runs (fun cursors ->
              merge (cursors @ [ buffer_cursor residual ]) (fun e ->
                  if (not !first) && e.a = !last_a && e.b = !last_b then incr duplicates
                  else begin
                    first := false;
                    last_a := e.a;
                    last_b := e.b;
                    incr written;
                    add_line buf cache ~name e;
                    if Buffer.length buf >= flush_at then begin
                      Buffer.output_buffer oc buf;
                      Buffer.clear buf
                    end;
                    f e
                  end));
          Buffer.output_buffer oc buf));
  { written = !written; duplicates = !duplicates; spilled_runs }
