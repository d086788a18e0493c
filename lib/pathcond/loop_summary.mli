(** Template-based loop summaries for input-count-bounded loops.

    The static pass scans every function's natural loops
    ({!Pbse_ir.Loop}) for the induction template

    {v
      header:  t := i <u b        (Ult, or Slt under a runtime guard)
               br t, body, exit
      body:    i := i + 1
               r1 := r1 + c1     (any number of distinct advances)
               ...
               jmp header
    v}

    — a two-block loop whose header tests a step-1 counter against a
    loop-invariant bound and whose body only advances registers by
    constants. Each advance [r := r + c] may appear either as a plain
    self-add or in the frontend's materialised form
    [tmp := r + c; r := tmp + 0] (MiniC assignments lower through a
    temporary); all written registers (destinations and temporaries)
    must be pairwise distinct, so each advance reads only its own
    register and the body is order-independent. For a matched loop, the
    full effect of running it to completion is a closed form over the
    entry values ([niter] = [b - i] when the test holds, else [0]; each
    [rj] advances by [cj * niter]; each temporary ends equal to its
    destination once at least one iteration ran), exact modulo 2^64 — so
    the executor can jump a state from the header to the exit in one
    step, with no new path constraint and no forks (the closed form is
    an [Ite] on the entry test, covering the zero-iteration inputs too).
    See docs/subsumption.md for the exactness argument.

    Loops that fail the template — nested, multi-latch, irreducible,
    effectful bodies — are counted as fallbacks and executed by plain
    unrolling, never a fault. *)

type update = {
  dst : int; (* register advanced by the loop body *)
  step : int64; (* constant added per iteration *)
  tmp : int option; (* temporary of the materialised pair, if any *)
}

type summary = {
  fidx : int;
  header : int; (* block index of the loop header *)
  body : int; (* the single body block *)
  exit_ : int; (* header's fall-through when the test fails *)
  cmp : Pbse_ir.Types.binop; (* Ult or Slt *)
  counter : int; (* induction register i, step exactly 1 *)
  counter_tmp : int option; (* temporary of the counter's pair, if any *)
  cond_reg : int; (* register holding the header test *)
  bound : Pbse_ir.Types.operand; (* Const, or a Reg unwritten by the loop *)
  updates : update list; (* non-counter advances *)
}

type analysis = {
  summaries : (int * int, summary) Hashtbl.t; (* (fidx, header) -> summary *)
  fallbacks : int; (* detected loops that failed the template *)
}

val analyze : Pbse_ir.Types.program -> analysis
