module Scheme = Anyseq_scoring.Scheme
module Gaps = Anyseq_bio.Gaps
module Sequence = Anyseq_bio.Sequence
open Types

type plan = {
  scheme : Scheme.t;
  variant : variant;
  query : Sequence.view;
  subject : Sequence.view;
  tile : int;
  nti : int;
  ntj : int;
  (* Border stripes: h_rows.(ti) is row i = ti·tile of H (length m+1);
     e_rows the matching E row; h_cols.(tj)/f_cols.(tj) the column
     j = tj·tile of H and F (length n+1). *)
  h_rows : int array array;
  e_rows : int array array;
  h_cols : int array array;
  f_cols : int array array;
  best : ends array; (* one slot per tile, written by its owner only *)
}

let tile_rows p = p.nti
let tile_cols p = p.ntj

let create scheme mode ~tile ~query ~subject =
  if tile <= 0 then invalid_arg "Tiling.create: tile size must be positive";
  let n = query.Sequence.len and m = subject.Sequence.len in
  let v = variant_of_mode mode in
  let go = Gaps.open_cost scheme.Scheme.gap and ge = Gaps.extend_cost scheme.Scheme.gap in
  let nti = max 1 ((n + tile - 1) / tile) in
  let ntj = max 1 ((m + tile - 1) / tile) in
  let h_rows = Array.init (nti + 1) (fun _ -> Array.make (m + 1) neg_inf) in
  let e_rows = Array.init (nti + 1) (fun _ -> Array.make (m + 1) neg_inf) in
  let h_cols = Array.init (ntj + 1) (fun _ -> Array.make (n + 1) neg_inf) in
  let f_cols = Array.init (ntj + 1) (fun _ -> Array.make (n + 1) neg_inf) in
  (* Row 0 and column 0 of the DP matrix. *)
  for j = 0 to m do
    h_rows.(0).(j) <- (if v.free_start || j = 0 then 0 else -(go + (j * ge)));
    e_rows.(0).(j) <- neg_inf
  done;
  for i = 0 to n do
    h_cols.(0).(i) <- (if v.free_start || i = 0 then 0 else -(go + (i * ge)));
    f_cols.(0).(i) <- neg_inf
  done;
  let no_best = { score = neg_inf; query_end = 0; subject_end = 0 } in
  {
    scheme;
    variant = v;
    query;
    subject;
    tile;
    nti;
    ntj;
    h_rows;
    e_rows;
    h_cols;
    f_cols;
    best = Array.make (nti * ntj) no_best;
  }

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

let compute_tile p ~ti ~tj =
  let { scheme; variant = v; query; subject; tile; _ } = p in
  let n = query.Sequence.len and m = subject.Sequence.len in
  let sigma = Scheme.subst_score scheme in
  let go = Gaps.open_cost scheme.Scheme.gap and ge = Gaps.extend_cost scheme.Scheme.gap in
  let i0 = ti * tile and j0 = tj * tile in
  let i1 = min n (i0 + tile) and j1 = min m (j0 + tile) in
  let top_h = p.h_rows.(ti) and top_e = p.e_rows.(ti) in
  let left_h = p.h_cols.(tj) and left_f = p.f_cols.(tj) in
  let w = j1 - j0 in
  (* Local rolling rows over the tile's columns j0+1..j1 (slot j-j0). *)
  let hrow = Array.make (w + 1) neg_inf in
  let erow = Array.make (w + 1) neg_inf in
  Array.blit top_h j0 hrow 0 (w + 1);
  Array.blit top_e j0 erow 0 (w + 1);
  let best = ref { score = neg_inf; query_end = 0; subject_end = 0 } in
  let note score i j =
    if improves v ~m score i j !best then best := { score; query_end = i; subject_end = j }
  in
  let track_all = v.best = All_cells in
  let track_last = v.best = Last_row_col in
  let scodes = Array.init w (fun k -> subject.Sequence.at (j0 + k)) in
  let simple =
    if track_all || track_last || v.clamp_zero then None
    else Anyseq_bio.Substitution.as_simple scheme.Scheme.subst
  in
  (match simple with
  | Some (match_, mismatch) ->
      (* Specialized corner-rule kernel (see Dp_linear.sweep_fast); the
         rolling state rides in tail-call arguments to stay in registers. *)
      let goe = go + ge in
      let right_h = p.h_cols.(tj + 1) and right_f = p.f_cols.(tj + 1) in
      let store_right = j1 = (tj + 1) * tile || j1 = m in
      for i = i0 + 1 to i1 do
        let q = query.Sequence.at (i - 1) in
        let hdiag0 = Array.unsafe_get hrow 0 in
        let border = left_h.(i) in
        Array.unsafe_set hrow 0 border;
        let rec go k hdiag f hleft =
          if k > w then f
          else begin
            let s = Array.unsafe_get scodes (k - 1) in
            let hk = Array.unsafe_get hrow k in
            let e_ext = Array.unsafe_get erow k - ge and e_opn = hk - goe in
            let e = if e_ext >= e_opn then e_ext else e_opn in
            let f_ext = f - ge and f_opn = hleft - goe in
            let fv = if f_ext >= f_opn then f_ext else f_opn in
            let diag = hdiag + if q = s then match_ else mismatch in
            let bestv = if diag >= e then diag else e in
            let bestv = if bestv >= fv then bestv else fv in
            Array.unsafe_set hrow k bestv;
            Array.unsafe_set erow k e;
            go (k + 1) hk fv bestv
          end
        in
        let final_f = go 1 hdiag0 left_f.(i) border in
        if store_right then begin
          right_h.(i) <- hrow.(w);
          right_f.(i) <- final_f
        end
      done
  | None ->
      for i = i0 + 1 to i1 do
        let q = query.Sequence.at (i - 1) in
        let hdiag = ref hrow.(0) in
        hrow.(0) <- left_h.(i);
        let f = ref left_f.(i) in
        for j = j0 + 1 to j1 do
          let k = j - j0 in
          let s = Array.unsafe_get scodes (k - 1) in
          let e = max (erow.(k) - ge) (hrow.(k) - go - ge) in
          let fv = max (!f - ge) (hrow.(k - 1) - go - ge) in
          let diag = !hdiag + sigma q s in
          let bestv = max diag (max e fv) in
          let bestv = if v.clamp_zero then max bestv 0 else bestv in
          hdiag := hrow.(k);
          hrow.(k) <- bestv;
          erow.(k) <- e;
          f := fv;
          if track_all || (track_last && (j = m || i = n)) then note bestv i j
        done;
        (* Right border of this tile = column j1. *)
        if j1 = (tj + 1) * tile || j1 = m then begin
          p.h_cols.(tj + 1).(i) <- hrow.(w);
          p.f_cols.(tj + 1).(i) <- !f
        end
      done);
  (* Bottom border = row i1.  The corner column j0 belongs to the left
     neighbour (it writes H(i1, j0) as its own last column); writing it here
     too would race with same-diagonal tiles and, for E, deposit a stale
     value — so tiles other than the leftmost start the blit at j0+1. *)
  begin
    let src = if tj = 0 then 0 else 1 in
    Array.blit hrow src p.h_rows.(ti + 1) (j0 + src) (w + 1 - src);
    Array.blit erow 1 p.e_rows.(ti + 1) (j0 + 1) w
  end;
  p.best.((ti * p.ntj) + tj) <- !best

let finish p =
  let n = p.query.Sequence.len and m = p.subject.Sequence.len in
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
      Array.iter (fun (b : ends) -> note b.score b.query_end b.subject_end) p.best;
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
  let n = p.query.Sequence.len and m = p.subject.Sequence.len in
  let i0 = ti * p.tile and j0 = tj * p.tile in
  (i0, min n (i0 + p.tile), j0, min m (j0 + p.tile))

let set_best p ~ti ~tj ends = p.best.((ti * p.ntj) + tj) <- ends
