(** Traced AIE intrinsics.

    The emulation layer the paper obtains from AMD's x86 [aietools]
    headers (Section 3.9): kernels call these instead of raw arithmetic so
    that (a) functional results match AIE semantics (f32 rounding,
    shift-round-saturate fixed point) and (b) each call emits the
    architectural cost events that the cycle-approximate simulator
    consumes.  Outside of aiesim tracing the emission is a single disabled
    branch, so cgsim/x86sim runs pay essentially nothing.

    Cost model: one vector-unit issue slot processes 8 fp32 lanes, 8 int32
    lanes or 32 int16 lanes per cycle ({!Cfg}); wider vectors occupy
    proportionally more slots.  Vector loads/stores move data through the
    load/store units in 32-byte beats.

    Each [*_into dst ...] variant writes into [dst] instead of allocating
    (see {!Vec} for the aliasing rule) and emits exactly the event of its
    allocating twin. *)

(** {1 fp32 vector ops (8-lane granularity)} *)

val fpadd : float array -> float array -> float array
val fpsub : float array -> float array -> float array
val fpmul : float array -> float array -> float array
val fpmac : float array -> float array -> float array -> float array
val fpmac_into : float array -> float array -> float array -> float array -> unit
val fpmax : float array -> float array -> float array
val fpmax_into : float array -> float array -> float array -> unit
val fpmin : float array -> float array -> float array
val fpmin_into : float array -> float array -> float array -> unit
val fpshuffle : float array -> int array -> float array
val fpshuffle_into : float array -> float array -> int array -> unit
val fpselect : bool array -> float array -> float array -> float array
val fpselect_into : float array -> bool array -> float array -> float array -> unit
val fpsplat : int -> float -> float array
val fpsplat_into : float array -> float -> unit

(** Horizontal sum; costs log2(lanes) vector ops. *)
val fpsum : float array -> float

(** {1 int16 vector ops (32-lane granularity)} *)

val mul16 : int array -> int array -> int array
val mac16 : int array -> int array -> int array -> int array
val mac16_into : int array -> int array -> int array -> int array -> unit
val add16 : int array -> int array -> int array
val sub16 : int array -> int array -> int array
val shuffle16 : int array -> int array -> int array

(** {1 int32 vector ops (8-lane granularity)} *)

val mac32 : int array -> int array -> int array -> int array
val add32 : int array -> int array -> int array

(** {1 accumulator moves} *)

val srs16 : shift:int -> int array -> int array
(** Shift-round-saturate accumulators to int16 lanes. *)

val srs16_into : int array -> shift:int -> int array -> unit

val srs32 : shift:int -> int array -> int array

val ups16 : shift:int -> int array -> int array

(** {1 vector loads/stores (data memory)} *)

val load_f32 : float array -> int -> int -> float array
(** [load_f32 mem off lanes] reads lanes from a local array, charging the
    load units. *)

val load_f32_into : float array -> float array -> int -> unit
(** [load_f32_into dst mem off] reads [Array.length dst] lanes. *)

val store_f32 : float array -> int -> float array -> unit

val load_i16 : int array -> int -> int -> int array

val load_i16_into : int array -> int array -> int -> unit

val store_i16 : int array -> int -> int array -> unit

(** {1 scalar ops} *)

val scalar_op : ?count:int -> string -> unit
(** Charge scalar-unit work with no functional effect (address updates,
    loop control the compiler would not hide). *)
