module Scheme = Anyseq_scoring.Scheme
module Gaps = Anyseq_bio.Gaps
module Sequence = Anyseq_bio.Sequence
open Types

type plan = {
  scheme : Scheme.t;
  variant : variant;
  query : Sequence.view;
  subject : Sequence.view;
  n : int;
  m : int;
  tile : int;
  nti : int;
  ntj : int;
  ws : Scratch.t option; (* the arena the buffers below came from *)
  (* What the row sweeps read: the folded substitution table, both
     sequences packed one code per byte, and the gap costs. *)
  sub : int array;
  asize : int;
  qcodes : Bytes.t;
  scodes : Bytes.t;
  affine : bool;
  ge : int;
  goe : int;
  (* Border stripes: h_rows.(ti) is row i = ti·tile of H (length m+1);
     e_rows the matching E row; h_cols.(tj)/f_cols.(tj) the column
     j = tj·tile of H and F (length n+1). *)
  h_rows : int array array;
  e_rows : int array array;
  h_cols : int array array;
  f_cols : int array array;
  (* Per tile, written by its owner only (every tile kernel writes its
     slot): score, query end, subject end of its own best cell. *)
  best : int array;
  (* Row-best accumulators of the clamped sweeps, one pair per tile row:
     tiles of one row depend on each other, so they never run at once. *)
  row_best : int ref array;
  row_best_j : int ref array;
}

let tile_rows p = p.nti
let tile_cols p = p.ntj

let create ?ws scheme mode ~tile ~query ~subject =
  if tile <= 0 then invalid_arg "Tiling.create: tile size must be positive";
  let n = query.Sequence.len and m = subject.Sequence.len in
  let v = variant_of_mode mode in
  let go = Gaps.open_cost scheme.Scheme.gap and ge = Gaps.extend_cost scheme.Scheme.gap in
  let nti = max 1 ((n + tile - 1) / tile) in
  let ntj = max 1 ((m + tile - 1) / tile) in
  (* Arena buffers come back dirty and longer than asked: every one is
     filled over the prefix it is used for. *)
  let ints len =
    match ws with Some ws -> Scratch.acquire ws len | None -> Array.make len 0
  in
  let codes (view : Sequence.view) =
    let len = view.Sequence.len in
    let b = match ws with Some ws -> Scratch.acquire_bytes ws len | None -> Bytes.create len in
    for k = 0 to len - 1 do
      Bytes.unsafe_set b k (Char.unsafe_chr (view.Sequence.at k))
    done;
    b
  in
  let stripe len =
    let a = ints len in
    Array.fill a 0 len neg_inf;
    a
  in
  let h_rows = Array.init (nti + 1) (fun _ -> stripe (m + 1)) in
  let e_rows = Array.init (nti + 1) (fun _ -> stripe (m + 1)) in
  let h_cols = Array.init (ntj + 1) (fun _ -> stripe (n + 1)) in
  let f_cols = Array.init (ntj + 1) (fun _ -> stripe (n + 1)) in
  (* Row 0 and column 0 of the DP matrix. *)
  for j = 0 to m do
    h_rows.(0).(j) <- (if v.free_start || j = 0 then 0 else -(go + (j * ge)))
  done;
  for i = 0 to n do
    h_cols.(0).(i) <- (if v.free_start || i = 0 then 0 else -(go + (i * ge)))
  done;
  let sub, asize = Row_sweep.fold_subst scheme in
  {
    scheme;
    variant = v;
    query;
    subject;
    n;
    m;
    tile;
    nti;
    ntj;
    ws;
    sub;
    asize;
    qcodes = codes query;
    scodes = codes subject;
    affine = Gaps.is_affine scheme.Scheme.gap;
    ge;
    goe = go + ge;
    h_rows;
    e_rows;
    h_cols;
    f_cols;
    best = ints (3 * nti * ntj);
    row_best = Array.init nti (fun _ -> ref 0);
    row_best_j = Array.init nti (fun _ -> ref 0);
  }

let release p =
  match p.ws with
  | None -> ()
  | Some ws ->
      let give = Scratch.release ws in
      Array.iter give p.h_rows;
      Array.iter give p.e_rows;
      Array.iter give p.h_cols;
      Array.iter give p.f_cols;
      give p.best;
      Scratch.release_bytes ws p.qcodes;
      Scratch.release_bytes ws p.scodes

(* Tie-break: [Dp_linear] notes cells in one fixed order with
   strictly-greater updates, so among equal scores it reports the first
   cell of that order — row-major for [All_cells]; column m top-down,
   then row n left to right, for [Last_row_col]. Tiles finish in another
   order, so a cell of equal score replaces the best one exactly when
   [Dp_linear] would have noted it first. *)
let precedes (v : variant) ~m i j (b : ends) =
  match v.best with
  | Last_row_col ->
      if j = m then b.subject_end <> m || i < b.query_end
      else b.subject_end <> m && j < b.subject_end
  | All_cells | Corner -> i < b.query_end || (i = b.query_end && j < b.subject_end)

let improves v ~m score i j (b : ends) =
  score > b.score || (score = b.score && precedes v ~m i j b)

let store_best p ~ti ~tj score i j =
  let k = 3 * ((ti * p.ntj) + tj) in
  p.best.(k) <- score;
  p.best.(k + 1) <- i;
  p.best.(k + 2) <- j

let set_best p ~ti ~tj (e : ends) = store_best p ~ti ~tj e.score e.query_end e.subject_end

(* A tile owns columns j0+1..j1 of its bottom stripes: it copies the top
   stripe's segment there and sweeps its rows in place with the native
   row sweeps, so after row i the segment holds H(i, ·) (and E(i, ·)).
   Column j0 of the bottom stripes belongs to the left neighbour, which
   writes H(i1, j0) as its own last column; writing it here too would
   race with same-diagonal tiles. *)
let compute_tile p ~ti ~tj =
  let { sub; asize; qcodes; scodes; ge; goe; tile; n; m; variant = v; _ } = p in
  let i0 = ti * tile and j0 = tj * tile in
  let i1 = min n (i0 + tile) and j1 = min m (j0 + tile) in
  let w = j1 - j0 in
  let top_h = p.h_rows.(ti) and top_e = p.e_rows.(ti) in
  let hrow = p.h_rows.(ti + 1) and erow = p.e_rows.(ti + 1) in
  let left_h = p.h_cols.(tj) and left_f = p.f_cols.(tj) in
  let right_h = p.h_cols.(tj + 1) and right_f = p.f_cols.(tj + 1) in
  Array.blit top_h (j0 + 1) hrow (j0 + 1) w;
  Array.blit top_e (j0 + 1) erow (j0 + 1) w;
  let row_best = p.row_best.(ti) and row_best_j = p.row_best_j.(ti) in
  (* The tile's own best cell, in [Dp_linear]'s note order: row-major
     for All_cells; column m top-down, then row n, for Last_row_col. *)
  let b_sc = ref neg_inf and b_i = ref 0 and b_j = ref 0 in
  let track_col = v.best = Last_row_col && j1 = m && w > 0 in
  for i = i0 + 1 to i1 do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hdiag = if i = i0 + 1 then top_h.(j0) else left_h.(i - 1) in
    let hleft = left_h.(i) in
    row_best := neg_inf;
    (if p.affine then
       right_f.(i) <-
         (if v.clamp_zero then
            Row_sweep.aff_row_clamp sub scodes hrow erow ge goe j1 row_best row_best_j (j0 + 1)
              hdiag left_f.(i) hleft qrow
          else
            Row_sweep.aff_row sub scodes hrow erow ge goe j1 (j0 + 1) hdiag left_f.(i) hleft qrow)
     else begin
       (* Linear gaps carry no E or F: H bounds both, so E(i, j) =
          H(i−1, j) − ge and F(i, j) = H(i, j−1) − ge. The stripes still
          hold them, for kernels that read the raw borders. *)
       if i = i1 then
         for j = j0 + 1 to j1 do
           erow.(j) <- hrow.(j) - ge
         done;
       if v.clamp_zero then
         Row_sweep.lin_row_clamp sub scodes hrow ge j1 row_best row_best_j (j0 + 1) hdiag hleft
           qrow
       else Row_sweep.lin_row sub scodes hrow ge j1 (j0 + 1) hdiag hleft qrow;
       right_f.(i) <-
         (if w = 0 then left_f.(i) else (if w = 1 then hleft else hrow.(j1 - 1)) - ge)
     end);
    right_h.(i) <- (if w = 0 then hleft else hrow.(j1));
    if !row_best > !b_sc then begin
      b_sc := !row_best;
      b_i := i;
      b_j := !row_best_j
    end;
    if track_col && hrow.(m) > !b_sc then begin
      b_sc := hrow.(m);
      b_i := i;
      b_j := m
    end
  done;
  if tj = 0 then hrow.(0) <- left_h.(i1);
  if v.best = Last_row_col && i1 = n && i1 > i0 then
    for j = j0 + 1 to j1 do
      if hrow.(j) > !b_sc then begin
        b_sc := hrow.(j);
        b_i := n;
        b_j := j
      end
    done;
  store_best p ~ti ~tj !b_sc !b_i !b_j

let finish p =
  let n = p.n and m = p.m in
  match p.variant.best with
  | Corner ->
      (* The bottom-right tile deposited H(n, ·) into h_rows.(nti). *)
      { score = p.h_rows.(p.nti).(m); query_end = n; subject_end = m }
  | All_cells | Last_row_col ->
      let best = ref { score = neg_inf; query_end = 0; subject_end = 0 } in
      let note score i j =
        if improves p.variant ~m score i j !best then
          best := { score; query_end = i; subject_end = j }
      in
      (* Border cells (they are not owned by any tile), then each tile's
         own best. *)
      if p.variant.best = All_cells then begin
        for j = 0 to m do
          note p.h_rows.(0).(j) 0 j
        done;
        for i = 0 to n do
          note p.h_cols.(0).(i) i 0
        done
      end
      else begin
        note p.h_rows.(0).(m) 0 m;
        note p.h_cols.(0).(n) n 0
      end;
      for k = 0 to (p.nti * p.ntj) - 1 do
        note p.best.(3 * k) p.best.((3 * k) + 1) p.best.((3 * k) + 2)
      done;
      !best

let run_sequential p =
  (* Anti-diagonal tile order respects both dependencies. *)
  Anyseq_staged.Gen.diagonal2 0 p.nti 0 p.ntj (fun ti tj -> compute_tile p ~ti ~tj);
  finish p

let score_only scheme mode ~tile ~query ~subject =
  run_sequential (create scheme mode ~tile ~query ~subject)

type raw = {
  r_scheme : Scheme.t;
  r_variant : variant;
  r_tile : int;
  r_query : Sequence.view;
  r_subject : Sequence.view;
  r_h_rows : int array array;
  r_e_rows : int array array;
  r_h_cols : int array array;
  r_f_cols : int array array;
}

let raw p =
  {
    r_scheme = p.scheme;
    r_variant = p.variant;
    r_tile = p.tile;
    r_query = p.query;
    r_subject = p.subject;
    r_h_rows = p.h_rows;
    r_e_rows = p.e_rows;
    r_h_cols = p.h_cols;
    r_f_cols = p.f_cols;
  }

let tile_span p ~ti ~tj =
  let i0 = ti * p.tile and j0 = tj * p.tile in
  (i0, min p.n (i0 + p.tile), j0, min p.m (j0 + p.tile))
