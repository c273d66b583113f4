(** Operator-fusion discovery.

    Finds maximal chains of kernels connected by exclusive
    point-to-point nets — each interior net has exactly one writer and
    one reader, is not a global input/output or RTP side channel, is the
    writer's only output and the reader's only input.  Those are the
    hops {!Runtime.compile} collapses into a single fiber with direct
    hand-off edges when [Run_config.fuse] is on; this pass alone decides
    what may fuse.

    Chains are proposed only for lint-clean graphs: structural
    validation, the SDF balance solve ({!Rates}) and the {!Deadlock}
    pass must all come back error-free, so rate-mismatched or
    deadlock-prone graphs keep one fiber per kernel and their
    diagnostics stay accurate. *)

(** Fusible chains, each a list of kernel indices upstream-first with
    at least two members.  Chains are disjoint. *)
val chains : Serialized.t -> int list list

(** [interior g chain] is the net ids of [chain]'s hand-off edges,
    upstream first: edge [i] joins members [i] and [i+1]. *)
val interior : Serialized.t -> int list -> int list

(** Lint pass: one [CG-I103] info per discovered chain, naming the
    member kernels upstream-first. *)
val analyze : Serialized.t -> Diagnostic.t list
