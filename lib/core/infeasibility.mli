(** Fast necessary conditions for flow-shop feasibility.

    The general flow-shop problem is NP-hard, and Algorithm H's failure
    proves nothing.  This module provides polynomial certificates of
    {e infeasibility}: when it returns a certificate, {e no} schedule —
    permutation or not, with or without inserted idle time — can meet all
    deadlines, because some single processor is overloaded inside a time
    window.  The test is the classical preemptive single-machine demand
    criterion applied to every processor with the effective windows
    [r_ij, d_ij]: if the subtasks that must execute entirely inside a
    window carry more work than its length, the instance is infeasible.
    (For one processor with preemption the criterion is also sufficient;
    across a flow shop it is only necessary.) *)

type rat = E2e_rat.Rat.t

type certificate =
  | Negative_slack of { task : int }
      (** The task cannot meet its deadline even alone ([d - r < tau]). *)
  | Overloaded_window of {
      processor : int;
      window_start : rat;
      window_end : rat;
      demand : rat;  (** Work that must fit entirely inside the window. *)
    }
      (** [demand > window_end - window_start] on this processor. *)

val pp_certificate : Format.formatter -> certificate -> unit

val check : E2e_model.Flow_shop.t -> certificate option
(** First certificate found, or [None] when the tests are inconclusive
    (the instance may still be infeasible).  O(m^2 n^3): for each of
    the m processors, every (release, deadline) window rescans the n
    tasks, recomputing each task's effective release and deadline in
    O(m). *)

val is_provably_infeasible : E2e_model.Flow_shop.t -> bool

val processor_demand :
  E2e_model.Flow_shop.t -> processor:int -> window_start:rat -> window_end:rat -> rat
(** Total processing time of the subtasks on [processor] whose effective
    window lies inside [\[window_start, window_end\]] (exposed for
    tests). *)
