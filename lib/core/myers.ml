module Sequence = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet

let unit_scheme = Anyseq_scoring.Scheme.unit_cost

(* The bit vectors use 62-bit limbs of OCaml's native int, not 64-bit
   Int64 words: [(eq land pv) + pv] of two 62-bit values stays strictly
   below 2^63, so the carry chain of Myers' Xh equation runs on untagged
   ints — no per-operation boxing in the inner loop, and every buffer is
   an [int array] the {!Scratch} arena can pool. Block decomposition is
   internal; distances are representation-independent. *)
let word_bits = 62

let all_ones = (1 lsl word_bits) - 1
let high_bit = 1 lsl (word_bits - 1)
let nblocks_of n = max 1 ((n + word_bits - 1) / word_bits)
let ceil_div a b = (a + b - 1) / b

(* Peq is flat — [peq.(code * nblocks + block)] — so one arena acquisition
   covers the whole table. Buffers come back dirty: zero exactly the
   prefix in use.

   Padding rows (pattern rows ≥ n in the last block) are {e wildcards}:
   they match every subject symbol, so the padded tail behaves as w_pad
   free matches and the banded bound arithmetic below can treat the
   block's bottom row as "true last row + w_pad". Rows < n are
   unaffected — the Xh carry chain only propagates upward (low bits to
   high bits), so any value or delta sampled at a row ≤ n-1 is identical
   to the unpadded computation. That keeps [search]/[occurrences]/
   [distance_full], which sample at the pattern's last-row bit,
   bit-exact. *)
let fill_peq peq q ~n ~nblocks =
  let asize = Alphabet.size (Sequence.alphabet q) in
  for k = 0 to (asize * nblocks) - 1 do
    Array.unsafe_set peq k 0
  done;
  for i = 0 to n - 1 do
    let c = Sequence.unsafe_get q i in
    let k = (c * nblocks) + (i / word_bits) in
    Array.unsafe_set peq k (Array.unsafe_get peq k lor (1 lsl (i mod word_bits)))
  done;
  let pad_lo = n mod word_bits in
  if pad_lo <> 0 then begin
    let pad_mask = all_ones lxor ((1 lsl pad_lo) - 1) in
    for c = 0 to asize - 1 do
      let k = (c * nblocks) + nblocks - 1 in
      Array.unsafe_set peq k (Array.unsafe_get peq k lor pad_mask)
    done
  end

(* One column step for one block (Myers' Advance_Block, as in edlib).
   [hin] is the horizontal delta entering the block's top row (-1/0/+1);
   the returned delta is sampled at [sample] — the block's top bit for
   interior blocks (the carry leaving its bottom row), or the pattern's
   last-row bit for the final block (the score delta). *)
let advance pv mv ~b ~eq ~hin ~sample =
  let pvb = Array.unsafe_get pv b and mvb = Array.unsafe_get mv b in
  let eq = if hin < 0 then eq lor 1 else eq in
  let xv = eq lor mvb in
  let xh = (((eq land pvb) + pvb) land all_ones) lxor pvb lor eq in
  let ph = mvb lor (all_ones land lnot (xh lor pvb)) in
  let mh = pvb land xh in
  let delta =
    if ph land sample <> 0 then 1 else if mh land sample <> 0 then -1 else 0
  in
  let ph = (ph lsl 1) land all_ones in
  let mh = (mh lsl 1) land all_ones in
  let ph = if hin > 0 then ph lor 1 else ph in
  let mh = if hin < 0 then mh lor 1 else mh in
  Array.unsafe_set pv b (mh lor (all_ones land lnot (xv lor ph)));
  Array.unsafe_set mv b (ph land xv);
  delta

(* Carry propagation through the interior blocks of one column. *)
let rec interior pv mv peq ~base ~b ~last ~hin =
  if b = last then hin
  else
    let hout =
      advance pv mv ~b ~eq:(Array.unsafe_get peq (base + b)) ~hin ~sample:high_bit
    in
    interior pv mv peq ~base ~b:(b + 1) ~last ~hin:hout

let one_column pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j =
  let c = Char.code (Bytes.unsafe_get scodes j) in
  let base = c * nblocks in
  let hin = interior pv mv peq ~base ~b:0 ~last:(nblocks - 1) ~hin:hin0 in
  advance pv mv ~b:(nblocks - 1)
    ~eq:(Array.unsafe_get peq (base + (nblocks - 1)))
    ~hin ~sample:last_mask

(* Straight distance loop (no per-column callback): tail-recursive with
   the running score in an argument, so the steady state allocates
   nothing — the full-sweep form kept as [distance_full] for the banded
   bit-identity gate and as the bench baseline. *)
let rec distance_columns pv mv peq scodes ~nblocks ~last_mask ~j ~m ~score =
  if j = m then score
  else
    let delta = one_column pv mv peq scodes ~nblocks ~last_mask ~hin0:1 ~j in
    distance_columns pv mv peq scodes ~nblocks ~last_mask ~j:(j + 1) ~m
      ~score:(score + delta)

let rec scan_columns pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j ~m ~score ~on_score =
  if j = m then score
  else begin
    let delta = one_column pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j in
    let score = score + delta in
    on_score j score;
    scan_columns pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j:(j + 1) ~m ~score ~on_score
  end

(* Buffer management: peq (asize x nblocks, flat), pv, mv — from the
   arena when one is supplied, fresh otherwise. pv starts all-ones
   (column 0 is 0,1,2,…,n top to bottom), mv empty. *)
let with_state ?ws q f =
  let n = Sequence.length q in
  let nblocks = nblocks_of n in
  let asize = Alphabet.size (Sequence.alphabet q) in
  let last_mask = 1 lsl ((n - 1) mod word_bits) in
  let init peq pv mv =
    fill_peq peq q ~n ~nblocks;
    for b = 0 to nblocks - 1 do
      Array.unsafe_set pv b all_ones;
      Array.unsafe_set mv b 0
    done;
    f peq pv mv ~nblocks ~last_mask
  in
  match ws with
  | None -> init (Array.make (asize * nblocks) 0) (Array.make nblocks 0) (Array.make nblocks 0)
  | Some ws ->
      let peq = Scratch.acquire ws (asize * nblocks) in
      let pv = Scratch.acquire ws nblocks in
      let mv = Scratch.acquire ws nblocks in
      Fun.protect
        ~finally:(fun () ->
          Scratch.release ws mv;
          Scratch.release ws pv;
          Scratch.release ws peq)
        (fun () -> init peq pv mv)

let distance_full ?ws q s =
  let n = Sequence.length q and m = Sequence.length s in
  if n = 0 then m
  else if m = 0 then n
  else
    with_state ?ws q (fun peq pv mv ~nblocks ~last_mask ->
        distance_columns pv mv peq (Sequence.unsafe_codes s) ~nblocks ~last_mask ~j:0 ~m
          ~score:n)

(* ------------------------------------------------------------------ *)
(* Ukkonen block band (edlib's myersCalcEditDistanceNW arithmetic).    *)
(*                                                                     *)
(* Only blocks [first..last] of each column are advanced. A block is   *)
(* retired when every cell it could contribute is provably > the       *)
(* running bound k; the band extends downward by one block when the    *)
(* carry out of the current last block leaves its top cell within      *)
(* reach of k. Cells outside the band are never read back — a         *)
(* re-entered block is re-seeded pv=all-ones/mv=0, which makes its     *)
(* values upper bounds of the true DP values, so any value ≤ k the     *)
(* band does produce is exact (Ukkonen's invariant).                   *)
(*                                                                     *)
(* bscore.(b) tracks the value of block b's bottom row; the running    *)
(* bound k starts at the caller's cap and self-tightens each column    *)
(* from the cheapest completion of the band's bottom cell.             *)
(* ------------------------------------------------------------------ *)

exception Band_empty

let banded_columns peq pv mv bscore scodes ~nblocks ~n ~m ~k0 =
  let w_pad = (nblocks * word_bits) - n in
  let k = ref (min k0 (max n m)) in
  let first = ref 0 in
  (* d ≥ max(|n-m|, cells-off-diagonal), so a band of
     ceil((min k ((k+n-m)/2) + 1) / 62) blocks already covers every cell
     that could stay ≤ k in column 0 *)
  let last =
    ref (min (nblocks - 1) (ceil_div (min !k ((!k + n - m) / 2) + 1) word_bits - 1))
  in
  for b = 0 to !last do
    Array.unsafe_set pv b all_ones;
    Array.unsafe_set mv b 0;
    Array.unsafe_set bscore b ((b + 1) * word_bits)
  done;
  let hout = ref 1 in
  (* a trailing block is out of band when even its best cell plus the
     cheapest path to the bottom-right corner exceeds k (the +1 mirrors
     edlib's empirically required slack on the simplified bound) *)
  let last_out_of_band j =
    let bs = Array.unsafe_get bscore !last in
    bs >= !k + word_bits
    || ((!last + 1) * word_bits) - 1
       > !k - bs + (2 * word_bits) - 2 - m + j + n + 1
  in
  (* a leading block is out of band when its bottom cell minus the rows
     still below it already exceeds k on every remaining path *)
  let first_out_of_band j =
    let bs = Array.unsafe_get bscore !first in
    bs >= !k + word_bits
    || ((!first + 1) * word_bits) - 1 < bs - !k - m + n + j
  in
  match
    for j = 0 to m - 1 do
      let base = Char.code (Bytes.unsafe_get scodes j) * nblocks in
      hout := 1;
      for b = !first to !last do
        let h =
          advance pv mv ~b ~eq:(Array.unsafe_get peq (base + b)) ~hin:!hout
            ~sample:high_bit
        in
        Array.unsafe_set bscore b (Array.unsafe_get bscore b + h);
        hout := h
      done;
      (* tighten k: the band's bottom cell plus the cheapest completion
         (remaining columns, or remaining rows, or the w_pad free
         matches when this is the final block) bounds d from above *)
      let bs = Array.unsafe_get bscore !last in
      let cand =
        bs
        + max (m - j - 1) (n - ((!last + 1) * word_bits))
        + (if !last = nblocks - 1 then w_pad else 0)
      in
      if cand < !k then k := cand;
      (* extend the band one block down while its top cell can reach ≤ k *)
      if
        !last + 1 < nblocks
        && not
             (((!last + 1) * word_bits) - 1
              > !k - bs + (2 * word_bits) - 2 - m + j + n)
      then begin
        let nl = !last + 1 in
        Array.unsafe_set pv nl all_ones;
        Array.unsafe_set mv nl 0;
        let h =
          advance pv mv ~b:nl ~eq:(Array.unsafe_get peq (base + nl)) ~hin:!hout
            ~sample:high_bit
        in
        Array.unsafe_set bscore nl
          (Array.unsafe_get bscore !last - !hout + word_bits + h);
        last := nl;
        hout := h
      end;
      while !last >= !first && last_out_of_band j do
        decr last
      done;
      while !first <= !last && first_out_of_band j do
        incr first
      done;
      if !last < !first then raise_notrace Band_empty
    done
  with
  | () ->
      if !last <> nblocks - 1 then None
      else begin
        (* the band reached the final block: walk the vertical deltas up
           from the block's bottom row through the w_pad wildcard rows to
           read the value at the pattern's true last row *)
        let v = ref (Array.unsafe_get bscore (nblocks - 1)) in
        let pvb = Array.unsafe_get pv (nblocks - 1)
        and mvb = Array.unsafe_get mv (nblocks - 1) in
        for r = word_bits - 1 downto ((n - 1) mod word_bits) + 1 do
          if pvb land (1 lsl r) <> 0 then decr v
          else if mvb land (1 lsl r) <> 0 then incr v
        done;
        if !v <= !k then Some !v else None
      end
  | exception Band_empty -> None

let with_band_state ?ws q f =
  let n = Sequence.length q in
  let nblocks = nblocks_of n in
  let asize = Alphabet.size (Sequence.alphabet q) in
  let init peq pv mv bscore =
    fill_peq peq q ~n ~nblocks;
    f peq pv mv bscore ~nblocks
  in
  match ws with
  | None ->
      init
        (Array.make (asize * nblocks) 0)
        (Array.make nblocks 0) (Array.make nblocks 0) (Array.make nblocks 0)
  | Some ws ->
      let peq = Scratch.acquire ws (asize * nblocks) in
      let pv = Scratch.acquire ws nblocks in
      let mv = Scratch.acquire ws nblocks in
      let bscore = Scratch.acquire ws nblocks in
      Fun.protect
        ~finally:(fun () ->
          Scratch.release ws bscore;
          Scratch.release ws mv;
          Scratch.release ws pv;
          Scratch.release ws peq)
        (fun () -> init peq pv mv bscore)

(* ------------------------------------------------------------------ *)
(* One-word diagonal band (Hyyrö, Nordic J. Computing 10, 2003).        *)
(*                                                                     *)
(* With Δ = n − m, a path of cost ≤ k stays within diagonals           *)
(* d = i − j ∈ [dmin, dmax] = [⌈(Δ−k)/2⌉, ⌊(Δ+k)/2⌋]: reaching (i, j)   *)
(* costs ≥ |d| and finishing costs ≥ |Δ − d|. For k ≤ {!diag_max_k}    *)
(* the band is at most 61 diagonals, so one word holds it: bit r of    *)
(* column j is row j + dmin + r, and the word slides down one row per  *)
(* column (shift right by one). Cells outside the band enter as upper  *)
(* bounds — the new bottom row's vertical delta and the top input are  *)
(* both +1, each the cost of a real one-step path from a band cell —   *)
(* so every computed value is a path cost, and any optimal path of     *)
(* cost ≤ k is seen whole: the rung returns [d] exactly when d ≤ k.    *)
(*                                                                     *)
(* Rows above row 0 (reached while j < −dmin) extend the matrix with   *)
(* D(i, j) = j − i, exact under the same +1 top input and column-0     *)
(* deltas of −1; rows below n never reach row n. Neither needs match   *)
(* bits, so the padded masks are zero there.                           *)
(*                                                                     *)
(* The value on diagonal Δ is tracked from the diagonal-zero bit       *)
(* (D0 = Xh | VN): diagonal steps cost 0 or 1, so it never decreases   *)
(* and ends as D(n, m). It is also the band's minimum of value +       *)
(* |Δ − diagonal| — that sum never rises toward diagonal Δ from either *)
(* side — so the pair is provably beyond k the moment the tracked      *)
(* value exceeds k, and the column loop stops there.                   *)
(* ------------------------------------------------------------------ *)

let diag_max_k = word_bits - 2

(* Limbs per character: pattern bit p sits at padded position p + top,
   and column j reads the 62-bit window at position j, two limbs wide. *)
let diag_limbs ~n ~m ~top = (max (n + top) (m + word_bits) / word_bits) + 2

(* Requires n, m > 0 and |n − m| ≤ k ≤ diag_max_k. Returns the distance,
   or −1 when it exceeds k. *)
let diag_columns peq scodes ~limbs ~top ~n ~m ~k =
  let delta = n - m in
  let w = ((delta + k) / 2) + top + 1 in
  let hi = 1 lsl (w - 1) in
  let rd = delta + top in
  (* column 0: rows dmin..0 have vertical delta −1, rows ≥ 1 have +1 *)
  let below = (1 lsl (top + 1)) - 1 in
  let pv = ref (((1 lsl w) - 1) lxor below) and mv = ref below in
  let score = ref (abs delta) and j = ref 0 and limb = ref 0 and sh = ref 0 in
  while !j < m && !score <= k do
    let base = (Char.code (Bytes.unsafe_get scodes !j) * limbs) + !limb in
    let eq =
      (Array.unsafe_get peq base lsr !sh)
      lor ((Array.unsafe_get peq (base + 1) lsl (word_bits - !sh)) land all_ones)
    in
    let pvb = (!pv lsr 1) lor hi and mvb = (!mv lsr 1) land lnot hi in
    let xv = eq lor mvb in
    let xh = (((eq land pvb) + pvb) land all_ones) lxor pvb lor eq in
    let ph = mvb lor (all_ones land lnot (xh lor pvb)) in
    let mh = pvb land xh in
    score := !score + 1 - (((xh lor mvb) lsr rd) land 1);
    let ph = (ph lsl 1) lor 1 and mh = mh lsl 1 in
    pv := mh lor (all_ones land lnot (xv lor ph));
    mv := ph land xv;
    incr j;
    if !sh = word_bits - 1 then begin
      sh := 0;
      incr limb
    end
    else incr sh
  done;
  if !score <= k then !score else -1

let diag_distance ?ws q s ~k =
  let n = Sequence.length q and m = Sequence.length s in
  let top = (k - (n - m)) / 2 (* −dmin *) in
  let limbs = diag_limbs ~n ~m ~top in
  let size = Alphabet.size (Sequence.alphabet q) * limbs in
  let peq = match ws with None -> Array.make size 0 | Some ws -> Scratch.acquire ws size in
  Array.fill peq 0 size 0;
  let qcodes = Sequence.unsafe_codes q in
  for i = 0 to n - 1 do
    let p = i + top in
    let idx = (Char.code (Bytes.unsafe_get qcodes i) * limbs) + (p / word_bits) in
    Array.unsafe_set peq idx (Array.unsafe_get peq idx lor (1 lsl (p mod word_bits)))
  done;
  let d = diag_columns peq (Sequence.unsafe_codes s) ~limbs ~top ~n ~m ~k in
  (match ws with None -> () | Some ws -> Scratch.release ws peq);
  d

(* Iterative deepening (edlib's outer loop): the one-word diagonal band
   at k′ = min cap diag_max_k first, then Ukkonen block bands from two
   words (or |n − m|), doubling until the band survives or the cap is
   reached. Each failed attempt costs O(m·k/62) block steps, so the
   total is within 2× of the last attempt — O(m·d/62) instead of the
   full sweep's O(m·n/62) whenever d << n, and crucially {e independent
   of how loose the cap is}: a caller cap of n/2 on a near-identical
   pair still resolves in the first rung. peq is filled once for the
   block bands; each attempt re-seeds only its initial band. Requires
   n, m > 0 and |n − m| ≤ cap. *)
let deepen ?ws q s ~cap =
  let n = Sequence.length q and m = Sequence.length s in
  let delta = abs (n - m) in
  let k1 = min cap diag_max_k in
  let d = if delta <= k1 then diag_distance ?ws q s ~k:k1 else -1 in
  if d >= 0 then Some d
  else if cap <= k1 then None
  else
    let first = if delta <= k1 then 2 * word_bits else max word_bits delta in
    with_band_state ?ws q (fun peq pv mv bscore ~nblocks ->
        let scodes = Sequence.unsafe_codes s in
        let rec go k =
          match banded_columns peq pv mv bscore scodes ~nblocks ~n ~m ~k0:k with
          | Some _ as r -> r
          | None -> if k >= cap then None else go (min cap (2 * k))
        in
        go (min cap first))

let distance_upto ?ws ~k q s =
  if k < 0 then None
  else
    let n = Sequence.length q and m = Sequence.length s in
    if n = 0 then if m <= k then Some m else None
    else if m = 0 then if n <= k then Some n else None
    else if (if n > m then n - m else m - n) > k then None
    else deepen ?ws q s ~cap:k

let distance ?ws q s =
  let n = Sequence.length q and m = Sequence.length s in
  if n = 0 then m
  else if m = 0 then n
  else
    (* d ≤ max n m always, so deepening at this cap cannot fail *)
    match deepen ?ws q s ~cap:(max n m) with
    | Some d -> d
    | None -> invalid_arg "Myers.distance: band failed at cap"

let search ~pattern ~text =
  let n = Sequence.length pattern in
  if n = 0 then (0, 0)
  else begin
    let best = ref n and best_pos = ref 0 in
    let m = Sequence.length text in
    with_state pattern (fun peq pv mv ~nblocks ~last_mask ->
        ignore
          (scan_columns pv mv peq (Sequence.unsafe_codes text) ~nblocks ~last_mask ~hin0:0
             ~j:0 ~m ~score:n ~on_score:(fun j score ->
               if score < !best then begin
                 best := score;
                 best_pos := j + 1
               end)));
    (!best, !best_pos)
  end

let occurrences ~pattern ~text ~k =
  let n = Sequence.length pattern in
  if n = 0 then List.init (Sequence.length text + 1) (fun j -> (j, 0))
  else begin
    let hits = ref [] in
    let m = Sequence.length text in
    with_state pattern (fun peq pv mv ~nblocks ~last_mask ->
        ignore
          (scan_columns pv mv peq (Sequence.unsafe_codes text) ~nblocks ~last_mask ~hin0:0
             ~j:0 ~m ~score:n ~on_score:(fun j score ->
               if score <= k then hits := (j + 1, score) :: !hits)));
    List.rev !hits
  end
