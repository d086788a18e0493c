module Rng = Pbse_util.Rng

type vector = (int * float) array

(* The loops below keep float accumulators in local refs, which the
   compiler keeps unboxed, and sum in the same order as a left fold, so
   every float is bit-identical to folding |c|^2 afresh on each call. *)

let norm2 centroid =
  let acc = ref 0.0 in
  for i = 0 to Array.length centroid - 1 do
    let x = centroid.(i) in
    acc := !acc +. (x *. x)
  done;
  !acc

let distance2_with ~norm2 v centroid =
  (* |v - c|^2 = |c|^2 + sum_over_v ((v_i - c_i)^2 - c_i^2) *)
  let acc = ref norm2 in
  for i = 0 to Array.length v - 1 do
    let dim, x = v.(i) in
    let c = centroid.(dim) in
    let d = x -. c in
    acc := !acc +. (d *. d) -. (c *. c)
  done;
  !acc

type clustering = {
  k : int;
  assignment : int array;
  centroids : float array array;
  inertia : float;
}

let max_iterations = 25

let cluster rng ~k ~dim vectors =
  if k < 1 then invalid_arg "Kmeans.cluster: k < 1";
  if dim < 1 then invalid_arg "Kmeans.cluster: dim < 1";
  let n = Array.length vectors in
  if n = 0 then invalid_arg "Kmeans.cluster: no vectors";
  let dense v =
    let c = Array.make dim 0.0 in
    Array.iter (fun (d, x) -> c.(d) <- x) v;
    c
  in
  (* k-means++ seeding; [norms] caches each centroid's |c|^2 *)
  let centroids = Array.make k [||] in
  let norms = Array.make k 0.0 in
  let set_centroid c x =
    centroids.(c) <- x;
    norms.(c) <- norm2 x
  in
  let distance v c = distance2_with ~norm2:norms.(c) v centroids.(c) in
  set_centroid 0 (dense vectors.(Rng.int rng n));
  let d2 = Array.map (fun v -> distance v 0) vectors in
  for c = 1 to k - 1 do
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. d2.(i)
    done;
    let choice =
      if !total <= 0.0 then Rng.int rng n
      else begin
        (* the first index whose prefix sum reaches [r], else the last *)
        let r = Rng.float rng !total in
        let chosen = ref 0 and acc = ref d2.(0) in
        while !chosen < n - 1 && !acc < r do
          incr chosen;
          acc := !acc +. d2.(!chosen)
        done;
        !chosen
      end
    in
    set_centroid c (dense vectors.(choice));
    for i = 0 to n - 1 do
      let d = distance vectors.(i) c in
      if d < d2.(i) then d2.(i) <- d
    done
  done;
  let assignment = Array.make n 0 in
  let assign () =
    let changed = ref false in
    let inertia = ref 0.0 in
    for i = 0 to n - 1 do
      let v = vectors.(i) in
      let best = ref 0 and best_d = ref infinity in
      for c = 0 to k - 1 do
        let d = distance v c in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      if assignment.(i) <> !best then begin
        assignment.(i) <- !best;
        changed := true
      end;
      inertia := !inertia +. !best_d
    done;
    (!changed, !inertia)
  in
  let recompute () =
    let sums = Array.init k (fun _ -> Array.make dim 0.0) in
    let counts = Array.make k 0 in
    Array.iteri
      (fun i v ->
        let c = assignment.(i) in
        counts.(c) <- counts.(c) + 1;
        Array.iter (fun (d, x) -> sums.(c).(d) <- sums.(c).(d) +. x) v)
      vectors;
    for c = 0 to k - 1 do
      if counts.(c) > 0 then begin
        let inv = 1.0 /. float_of_int counts.(c) in
        let sum = sums.(c) in
        for d = 0 to dim - 1 do
          sum.(d) <- sum.(d) *. inv
        done;
        set_centroid c sum
      end
      (* empty clusters keep their previous centroid *)
    done
  in
  let rec iterate i _inertia =
    let changed, inertia' = assign () in
    if changed && i < max_iterations then begin
      recompute ();
      iterate (i + 1) inertia'
    end
    else inertia'
  in
  let inertia = iterate 0 infinity in
  { k; assignment; centroids; inertia }
