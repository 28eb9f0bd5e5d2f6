(** Classification accuracy, shared by training, evaluation and the online
    control plane's accuracy monitors. *)

val accuracy_of : predict:(int array -> int) -> Dataset.t -> float
(** Fraction of the samples whose [predict] output equals their label; 0
    on an empty dataset.  Raises [Invalid_argument] when [predict] returns
    a class outside [\[0, n_classes)]. *)
