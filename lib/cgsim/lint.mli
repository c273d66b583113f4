(** The lint driver: every pass over one graph, one finding list.

    Pass order is structural validation first ({!Serialized.validate_diags});
    when it reports errors the graph's indices cannot be trusted, so the
    deeper passes are skipped and only the structural findings are
    returned.  Otherwise the rate, deadlock, hazard and pool-safety
    passes run and their findings are filtered through per-net
    suppression and sorted errors-first.

    Suppression: a net attribute ["lint.suppress"] whose string value is
    a comma-separated list of codes (or ["all"]) drops findings of those
    codes when {e every} net the finding names carries the suppression.
    Findings naming no net are never suppressed. *)

type pass = {
  pass_name : string;
  pass_run : Serialized.t -> Diagnostic.t list;
}

(** Rates, deadlock, hazards, pool-safety — the passes that run after
    structural validation. *)
val default_passes : pass list

val run : ?passes:pass list -> Serialized.t -> Diagnostic.t list
