(* nwbench: one untraced sfd-hpstar op (hpstar.ml), in a process of its
   own as every forestd invocation is.

     nwbench INSTANCE COLORING_OUT *)

let () =
  match Sys.argv with
  | [| _; instance; coloring_out |] -> ignore (Hpstar.op ~instance ~coloring_out)
  | _ ->
      prerr_endline "usage: nwbench INSTANCE COLORING_OUT";
      exit 2
