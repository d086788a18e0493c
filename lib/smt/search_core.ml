(* The solving core: budgeted backtracking search over per-byte domains
   with interval propagation, plus the hint-neighbourhood probe that
   short-circuits it. Stateless apart from the caller's meter — solver
   bookkeeping (stats, caches) stays in [Solver]. *)

(* --- work accounting ------------------------------------------------------ *)

exception Out_of_budget

(* Raises [Out_of_budget] when the per-query allowance is exhausted. *)
type meter = {
  mutable spent : int;
  limit : int;
}

let meter ~limit = { spent = 0; limit }

let spend m n =
  m.spent <- m.spent + n;
  if m.spent > m.limit then raise Out_of_budget

(* --- byte domains --------------------------------------------------------- *)

(* Mutable domain of one input byte during a group solve. *)
type domain = {
  allowed : Bytes.t; (* 256 flags *)
  mutable size : int;
  mutable dlo : int;
  mutable dhi : int;
  mutable hull : Interval.t; (* [dlo, dhi], kept while [size > 0] *)
}

let byte_range = Interval.make 0L 255L
let byte_points = Array.init 256 (fun v -> Interval.point (Int64.of_int v))

let domain_full () =
  { allowed = Bytes.make 256 '\001'; size = 256; dlo = 0; dhi = 255; hull = byte_range }

let domain_mem d v = Bytes.get d.allowed v <> '\000'

let domain_remove d v =
  if domain_mem d v then begin
    Bytes.set d.allowed v '\000';
    d.size <- d.size - 1;
    if d.size > 0 && (v = d.dlo || v = d.dhi) then begin
      while d.dlo < 256 && not (domain_mem d d.dlo) do
        d.dlo <- d.dlo + 1
      done;
      while d.dhi >= 0 && not (domain_mem d d.dhi) do
        d.dhi <- d.dhi - 1
      done;
      d.hull <- Interval.make (Int64.of_int d.dlo) (Int64.of_int d.dhi)
    end
  end

(* --- groups --------------------------------------------------------------- *)

type group = {
  constraints : Expr.t array;
  vars : int array; (* sorted input indices *)
  base : int; (* smallest input index, the origin of [pos_of] *)
  pos_of : int array; (* input index - base -> position in [vars], or -1 *)
  by_var : int list array; (* position -> constraint indices *)
  cpos : int array array; (* constraint -> positions of the bytes it reads *)
}

let build_group ~reads exprs =
  let constraints = Array.of_list exprs in
  let creads = Array.map reads constraints in
  let vars =
    Array.of_list (List.sort_uniq Int.compare (List.concat (Array.to_list creads)))
  in
  let nvars = Array.length vars in
  let base = if nvars = 0 then 0 else vars.(0) in
  let pos_of = Array.make (if nvars = 0 then 0 else vars.(nvars - 1) - base + 1) (-1) in
  Array.iteri (fun pos v -> pos_of.(v - base) <- pos) vars;
  let cpos =
    Array.map (fun r -> Array.of_list (List.map (fun v -> pos_of.(v - base)) r)) creads
  in
  let by_var = Array.make nvars [] in
  Array.iteri (fun ci -> Array.iter (fun pos -> by_var.(pos) <- ci :: by_var.(pos))) cpos;
  { constraints; vars; base; pos_of; by_var; cpos }

let group_vars g = g.vars

(* Position of input byte [i] in the group's [vars], or -1. *)
let position g i =
  let k = i - g.base in
  if k >= 0 && k < Array.length g.pos_of then g.pos_of.(k) else -1

type group_result =
  | Gsat of (int * int) list (* input index, value *)
  | Gunsat
  | Gunknown

(* --- hint-neighbourhood probe --------------------------------------------- *)

(* Fast path: most fork queries in loops ask for "one more iteration" —
   a model one small step away from the hint on the newly constrained
   bytes. Probe hint +/- powers of two on each focus byte before any
   domain work; constraints are evaluated lazily and the probe aborts on
   the first falsified one, so failed probes are nearly free. [hint_at]
   holds the hint's value of each group byte, by position. *)
let probe_deltas = [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ]

let probe_neighborhood meter ~hint ~hint_at group focus =
  (* the probed model: the hint, with the byte at [over_pos] (if any)
     rebound to [over_val] *)
  let over_pos = ref (-1) and over_val = ref 0 in
  let lookup i =
    let pos = position group i in
    if pos < 0 then Model.get hint i
    else if pos = !over_pos then !over_val
    else hint_at.(pos)
  in
  let rec satisfied ci =
    ci >= Array.length group.constraints
    ||
    let c = group.constraints.(ci) in
    spend meter (min c.Expr.nodes 64);
    Semantics.truthy (Expr.eval lookup c) && satisfied (ci + 1)
  in
  let try_model () =
    if satisfied 0 then
      Some (Array.to_list (Array.map (fun v -> (v, lookup v)) group.vars))
    else None
  in
  let rec try_var vars =
    match vars with
    | [] -> None
    | v :: rest ->
      let pos = position group v in
      let base = hint_at.(pos) in
      let rec try_delta = function
        | [] -> try_var rest
        | d :: ds ->
          let candidate = base + d in
          if candidate >= 0 && candidate <= 255 then begin
            over_pos := pos;
            over_val := candidate;
            match try_model () with
            | Some bindings -> Some bindings
            | None -> try_delta ds
          end
          else try_delta ds
      in
      try_delta probe_deltas
  in
  match try_model () with
  | Some bindings -> Some bindings
  | None -> try_var focus

(* --- backtracking search -------------------------------------------------- *)

(* Values tried first at each search depth, as deltas from the hint;
   [near_delta] is membership in this set. *)
let near_deltas = [| 0; 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 |]

let near_delta d =
  d = 128
  ||
  let a = abs d in
  a <= 64 && a land (a - 1) = 0

(* [bounds] supplies externally learned per-byte intervals (the prefix
   context's); they are intersected into the initial domains. Soundness:
   a bound for byte [v] is implied by constraints that read [v], all of
   which the caller includes in [v]'s group, so the pruned values could
   never appear in a solution of this group anyway. [on_node] is the
   caller's search-node counter. *)
let solve_group_search ~on_node meter ~hint ~hint_at ~bounds group =
  let nvars = Array.length group.vars in
  let domains = Array.init nvars (fun _ -> domain_full ()) in
  (* seed the domains with the learned bounds *)
  Array.iteri
    (fun pos v ->
      match bounds v with
      | None -> ()
      | Some (iv : Interval.t) ->
        let lo = Int64.to_int iv.Interval.lo and hi = Int64.to_int iv.Interval.hi in
        if lo > 0 || hi < 255 then begin
          let d = domains.(pos) in
          for x = 0 to 255 do
            if x < lo || x > hi then domain_remove d x
          done
        end)
    group.vars;
  let assignment = Array.make nvars (-1) in
  (* Interval environment: assigned variables are points, unassigned ones
     are the hull of their remaining domain. *)
  let lookup_interval i =
    let pos = position group i in
    if pos < 0 then byte_range
    else if assignment.(pos) >= 0 then byte_points.(assignment.(pos))
    else domains.(pos).hull
  in
  let interval_check ci =
    let c = group.constraints.(ci) in
    spend meter c.Expr.nodes;
    not (Interval.definitely_false (Interval.eval lookup_interval c))
  in
  let lookup_exact i =
    let pos = position group i in
    if pos < 0 then Model.get hint i
    else if assignment.(pos) >= 0 then assignment.(pos)
    else hint_at.(pos)
  in
  let exact_check ci =
    let c = group.constraints.(ci) in
    spend meter c.Expr.nodes;
    Semantics.truthy (Expr.eval lookup_exact c)
  in
  let unassigned ci =
    let ps = group.cpos.(ci) in
    let k = ref 0 in
    while !k < Array.length ps && assignment.(ps.(!k)) >= 0 do
      incr k
    done;
    !k < Array.length ps
  in
  let consistent ci = if unassigned ci then interval_check ci else exact_check ci in
  (* Bound-consistency pass: trim each variable's domain endpoints while
     a constraint is definitely false there (holding the other variables
     at their domain hulls). Trimming is pay-per-prune — a constraint that
     prunes nothing costs two interval evaluations — yet converges fully
     for the monotone loop-bound chains and magic-byte equalities that
     dominate parser path conditions. *)
  let propagate () =
    let changed = ref true in
    let rounds = ref 0 in
    (* the byte being narrowed is the point [narrow_val] *)
    let narrow_pos = ref (-1) and narrow_val = ref 0 in
    let lookup i =
      let p = position group i in
      if p < 0 then byte_range
      else if p = !narrow_pos then byte_points.(!narrow_val)
      else domains.(p).hull
    in
    let false_at c v =
      spend meter c.Expr.nodes;
      narrow_val := v;
      Interval.definitely_false (Interval.eval lookup c)
    in
    let narrow d ci =
      if Array.length group.cpos.(ci) <= 6 then begin
        let c = group.constraints.(ci) in
        while d.size > 0 && false_at c d.dlo do
          domain_remove d d.dlo;
          changed := true
        done;
        while d.size > 0 && false_at c d.dhi do
          domain_remove d d.dhi;
          changed := true
        done
      end
    in
    (* multi-byte equalities narrow one byte per round, highest first;
       six rounds cover a u32 field plus slack *)
    while !changed && !rounds < 6 do
      changed := false;
      incr rounds;
      for pos = 0 to nvars - 1 do
        narrow_pos := pos;
        List.iter (narrow domains.(pos)) group.by_var.(pos);
        if domains.(pos).size = 0 then raise Exit
      done
    done
  in
  (* Depth-first search over variables, cheapest domain first, hint value
     tried first. *)
  let order = Array.init nvars (fun i -> i) in
  let finished = ref None in
  let rec all_hold ci =
    ci >= Array.length group.constraints || (exact_check ci && all_hold (ci + 1))
  in
  let rec assign depth =
    if depth = nvars then begin
      (* all variables assigned: every constraint must hold exactly *)
      if all_hold 0 then begin
        finished :=
          Some
            (Array.to_list
               (Array.mapi (fun pos _ -> (group.vars.(pos), assignment.(pos))) group.vars));
        true
      end
      else false
    end
    else begin
      let pos = order.(depth) in
      let d = domains.(pos) in
      let try_value v =
        if not (domain_mem d v) then false
        else begin
          on_node ();
          spend meter 1;
          assignment.(pos) <- v;
          let found = List.for_all consistent group.by_var.(pos) && assign (depth + 1) in
          if not found then assignment.(pos) <- -1;
          found
        end
      in
      (* neighbourhood-first value order: loop-step queries succeed a small
         delta away from the hint; the tail scan keeps the search complete *)
      let hint_v = hint_at.(pos) land 0xFF in
      let rec scan v =
        if v > d.dhi then false
        else if (not (near_delta (v - hint_v))) && try_value v then true
        else scan (v + 1)
      in
      let rec try_near k =
        if k = Array.length near_deltas then scan d.dlo
        else
          let v = hint_v + near_deltas.(k) in
          (v >= 0 && v <= 255 && try_value v) || try_near (k + 1)
      in
      try_near 0
    end
  in
  match
    (try
       if Array.exists (fun d -> d.size = 0) domains then raise Exit;
       propagate ();
       (* order variables by narrowed domain size *)
       Array.sort (fun a b -> Int.compare domains.(a).size domains.(b).size) order;
       if assign 0 then `Sat else `Unsat
     with
    | Exit -> `Unsat)
  with
  | `Sat -> (
    match !finished with
    | Some bindings -> Gsat bindings
    | None -> Gunknown)
  | `Unsat -> Gunsat

let solve_group ~on_node meter ~hint ~focus ~bounds group =
  let focus = List.filter (fun i -> position group i >= 0) focus in
  let hint_at = Array.map (Model.get hint) group.vars in
  match probe_neighborhood meter ~hint ~hint_at group focus with
  | Some bindings -> Gsat bindings
  | None -> solve_group_search ~on_node meter ~hint ~hint_at ~bounds group
