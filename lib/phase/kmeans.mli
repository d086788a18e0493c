(** k-means clustering over sparse vectors.

    Deterministic (seeded k-means++ initialisation, Lloyd iterations to a
    fixed point or an iteration cap). Used to group per-interval BBVs
    into program phases. *)

type vector = (int * float) array
(** Sparse: (dimension, value), sorted by dimension, no duplicates. *)

val norm2 : float array -> float
(** Squared norm of a dense centroid, summed in index order. *)

val distance2_with : norm2:float -> vector -> float array -> float
(** [distance2_with ~norm2:(norm2 c) v c] is the squared Euclidean
    distance between the sparse vector [v] and the dense centroid [c],
    in time linear in [v]'s nonzeros: {!cluster} computes each
    centroid's norm once, when the centroid is set. *)

type clustering = {
  k : int;
  assignment : int array; (* vector index -> cluster in [0, k) *)
  centroids : float array array;
  inertia : float; (* sum of squared distances to assigned centroids *)
}

val cluster :
  Pbse_util.Rng.t -> k:int -> dim:int -> vector array -> clustering
(** Raises [Invalid_argument] when [k < 1], [dim < 1] or there are no
    vectors. When there are fewer vectors than [k], surplus clusters stay
    empty. *)
