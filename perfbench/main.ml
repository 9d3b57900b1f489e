(* The repository benchmark.

     main.exe --workload reads|long|serve|network --seed N --seconds S --trace 0|1
              [--server-exe PATH] [--work DIR]

   Inputs are generated from the seed. With --trace 0 the run reports the
   end-to-end metrics; with --trace 1 it reports the per-layer metrics
   (perfbench/layers.json maps each one to the end-to-end metric it
   moves). Every run checks the outputs it produces. The last line of
   standard output is the result object; the line before it is the run
   metadata. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload reads|long|serve|network --seed N --seconds S --trace 0|1 \
     [--server-exe PATH] [--work DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = int_of_string (get "--seed") in
  let seconds = float_of_string (get "--seconds") in
  let trace = get "--trace" = "1" in
  let exe = Option.value ~default:"_build/default/bin/anyseq_cli.exe" (List.assoc_opt "--server-exe" opts) in
  let work = Option.value ~default:".perfbench" (List.assoc_opt "--work" opts) in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let nproc = Domain.recommended_domain_count () in
  let load_start = load1 () in
  let sink = sink () and tally = tally () in
  (match workload with
  | "reads" -> Reads.run ~seed ~seconds ~trace sink tally
  | "long" -> Long.run ~seed ~seconds ~trace sink tally
  | "network" -> Network.run ~seed ~seconds ~trace ~work sink tally
  | "serve" -> Serve.run ~seed ~seconds ~trace ~exe ~work sink tally
  | _ -> usage ());
  let fail_frac = ratio (fi tally.failed) (fi tally.attempted) in
  if trace then put sink "fail_frac" "frac" fail_frac;
  List.iter (fun w -> prerr_endline ("check failed: " ^ w)) (List.rev tally.why);
  let load_end = load1 () in
  Printf.printf
    "{\"meta\":{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"rev\":\"%s\",\"nproc\":%d,\"ocaml\":\"%s\",\"load1_start\":%.2f,\"load1_end\":%.2f,\"busy_at_start\":%b,\"fail_frac\":%.6g,\"inputs\":\"%s\",\"outputs\":\"%s\"%s}}\n"
    workload seed seconds trace (source_rev ()) nproc Sys.ocaml_version load_start load_end
    (load_start > fi nproc) fail_frac !inputs_digest !outputs_digest
    (String.concat "" (List.rev_map (fun (k, v) -> Printf.sprintf ",\"%s\":%.6g" k v) !extra_meta));
  let metrics =
    List.rev sink.items
    |> List.map (fun (n, (v, u)) -> Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" n v u)
    |> String.concat ","
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (tally.attempted > 0 && tally.failed = 0)
    tally.attempted tally.failed metrics
