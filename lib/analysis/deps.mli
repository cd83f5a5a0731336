(** Per-plan authorization dependency sets.

    [of_extended] computes, for a finished (extended, clusters) plan,
    the exact set of {!Fact}s the static verifier's policy-consulting
    checks and the planner's user-input gate read when certifying it —
    by replaying the same reads, not by conservatively returning every
    fact of every subject:

    - {b assignees} (Def. 4.1/4.2, [MPQ010–012] and the [MPQ020]
      minimality probes): for every node with executor [s], the facts
      of [s] over the attributes {!Fact.profile_reads} lists for each
      operand profile and the node's result profile, read from the
      plan's stored profiles ([extended.profiles]);
    - {b key distribution} (Def. 6.1, [MPQ030]): for every cluster and
      every subject with encryption/decryption duty over it
      ({!Verify.Check_keys.duty_map}), the [Plain] facts over the
      attributes it handles;
    - {b user inputs} (Sec. 6's recipient gate in the optimizer): when
      [deliver_to] is given, the facts of that subject against the
      profile of every maximal source-side node of the original plan —
      [original] when the caller still has the query the gate actually
      ran on (the serve layer does), else the extended plan with its
      crypto operations stripped.

    The profile-propagation, scheme-sufficiency and dispatch checks
    never consult the policy, so they contribute no facts.

    {b Soundness claim} (checked by the qcheck property in
    [test/test_analysis.ml]): a policy change whose view-level delta
    ({!Delta.diff}) is disjoint from a plan's dependency set leaves
    every verifier verdict on that plan unchanged. A delta that only
    {e adds} facts can never turn a passing check failing (grants are
    monotone for Def. 4.1), so entries overlapping the delta on added
    facts alone are safely revalidated by one verifier pass without
    replanning; removed facts in the set force invalidation.

    {b Precondition}: [extended] has passed the verifier, as every plan
    {!Planner.Optimizer.plan} returns has. Its profile check ([MPQ001])
    then proved each stored profile {!Authz.Profile.equal} to the
    verifier's own re-derivation ({!Verify.Derive}), and
    {!Fact.profile_reads} reads only the fields that comparison covers,
    so the stored profiles give the facts the re-derivation would.
    {!of_extended} raises [Invalid_argument] naming the node when an
    assigned node or one of its operands carries no stored profile:
    contributing no facts for it would shrink the set and let a cached
    entry survive a revocation it depends on.

    The serve layer stores this set with a cached plan and with every
    sub-plan result an execution of that plan stores. A subtree's
    certification reads a subset of the facts its whole plan's does,
    so a sub-plan result is dropped by every revocation that touches
    its subtree, and possibly by more. *)

open Authz

val of_extended :
  ?deliver_to:Subject.t ->
  ?original:Relalg.Plan.t ->
  extended:Extend.t ->
  clusters:Plan_keys.cluster list ->
  unit ->
  Fact.Set.t

val subjects_of : Fact.Set.t -> Subject.Set.t
(** The subjects a dependency set mentions — the extra population a
    {!Delta.diff} must cover so that a delta judged disjoint from the
    set is disjoint for {e every} subject the cached verdict consulted
    (an [any]-rule change can touch subjects outside the caller's
    configured population). The serve layer folds this over the cached
    entries of exactly the tenant whose policy is being swapped. *)
