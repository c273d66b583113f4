(** Pure (untraced) vector value helpers.

    AIE vector registers are modelled as plain OCaml arrays: [float array]
    for fp32 lanes and [int array] for integer lanes.  These helpers are
    the functional semantics only; {!Intrinsics} wraps them with cost
    emission.  All operations are lane-wise and length-checked.

    Each [*_into dst ...] variant writes its result into [dst] instead of
    allocating it; [dst] must have the result's lane count.  Lane-wise
    variants may pass one of their inputs as [dst] (lane [i] is read
    before it is written); {!fshuffle_into} may not, and rejects it. *)

val check_lanes : string -> 'a array -> 'b array -> unit
(** Raises [Invalid_argument] when lane counts differ. *)

(** {1 fp32 lanes} *)

val fsplat : int -> float -> float array
val fsplat_into : float array -> float -> unit
val fadd : float array -> float array -> float array
val fsub : float array -> float array -> float array
val fmul : float array -> float array -> float array

(** [fmac acc a b] is [acc + a*b] per lane, rounded to f32. *)
val fmac : float array -> float array -> float array -> float array

val fmac_into : float array -> float array -> float array -> float array -> unit

(** Lane [i] is [if a.(i) >= b.(i) then a.(i) else b.(i)] (so a NaN in
    [a] yields [b]'s lane); {!fmin} likewise with [<=]. *)
val fmax : float array -> float array -> float array

val fmax_into : float array -> float array -> float array -> unit
val fmin : float array -> float array -> float array
val fmin_into : float array -> float array -> float array -> unit

(** [fshuffle v idx] selects lanes: result.(i) = v.(idx.(i)). *)
val fshuffle : float array -> int array -> float array

val fshuffle_into : float array -> float array -> int array -> unit

(** [fselect mask a b] takes a.(i) when mask.(i), else b.(i). *)
val fselect : bool array -> float array -> float array -> float array

val fselect_into : float array -> bool array -> float array -> float array -> unit

(** Horizontal sum as a pairwise tree, rounded to f32 at every add;
    [0.0] for no lanes. *)
val fsum : float array -> float

(** {1 integer lanes} *)

val isplat : int -> int -> int array
val iadd : int array -> int array -> int array
val isub : int array -> int array -> int array
val imul : int array -> int array -> int array

(** [imac acc a b] widening multiply-accumulate (no overflow inside the
    accumulator, mirroring the 48-bit AIE accumulators). *)
val imac : int array -> int array -> int array -> int array

val imac_into : int array -> int array -> int array -> int array -> unit
val ishuffle : int array -> int array -> int array

(** [srs dtype shift acc] shift-round-saturate each accumulator lane down
    by [shift] bits with round-to-nearest, saturating to [dtype]. *)
val srs : Cgsim.Dtype.t -> int -> int array -> int array

val srs_into : int array -> Cgsim.Dtype.t -> int -> int array -> unit

(** [ups shift v] upshift lanes into accumulator domain. *)
val ups : int -> int array -> int array
