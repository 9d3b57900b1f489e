(** The native row sweeps: one DP row of the linear-gap or Gotoh
    recurrence over packed codes and a flat substitution table, with no
    allocation. The whole-pair native kernels and every wavefront tile
    run these same four functions.

    Common arguments: [sub] is the table from {!fold_subst}; [scodes]
    holds one subject code per byte; [hrow] (and [erow]) hold row i−1 at
    indices [j..m] on entry and row i on return; [j] is the first column
    swept and [m] the last (absolute indices, so a tile sweeps its own
    segment of a longer row); [hdiag] = H(i−1, j−1); [hleft] = H(i, j−1);
    [f] = F(i, j−1); [qrow] = query code of row i × alphabet size.
    Gap costs are positive: [ge] extend, [goe] open + extend. Values must
    stay far inside [min_int/4] (maxes are branchless). *)

val fold_subst : Anyseq_scoring.Scheme.t -> int array * int
(** [(table, asize)]: [table.(a * asize + b)] is the score of codes [a]
    against [b]. *)

val lin_row :
  int array -> Bytes.t -> int array -> int -> int -> int -> int -> int -> int -> unit
(** [lin_row sub scodes hrow ge m j hdiag hleft qrow]: linear gaps. *)

val lin_row_clamp :
  int array ->
  Bytes.t ->
  int array ->
  int ->
  int ->
  int ref ->
  int ref ->
  int ->
  int ->
  int ->
  int ->
  unit
(** [lin_row_clamp sub scodes hrow ge m row_best row_best_j j hdiag hleft
    qrow]: linear gaps, cells clamped at 0 (local). Raises [row_best] to
    the row's best cell when that is strictly greater, with
    [row_best_j] its leftmost column. *)

val aff_row :
  int array ->
  Bytes.t ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int
(** [aff_row sub scodes hrow erow ge goe m j hdiag f hleft qrow]: affine
    gaps; returns F(i, m). *)

val aff_row_clamp :
  int array ->
  Bytes.t ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  int ref ->
  int ref ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int
(** [aff_row_clamp sub scodes hrow erow ge goe m row_best row_best_j j
    hdiag f hleft qrow]: affine gaps clamped at 0, tracking the row best
    like {!lin_row_clamp}; returns F(i, m). *)
