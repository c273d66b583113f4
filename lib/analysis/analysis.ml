(* The static analyzer lives in [cgsim] (Runtime.compile runs it); these
   aliases keep the older [Analysis.*] paths compiling. *)
module Lint = Cgsim.Lint
module Fusion = Cgsim.Fusion
module Capacity = Cgsim.Capacity
