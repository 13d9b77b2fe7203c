(* sfd-hpstar: the Theorem 2.1 chain H-partition peel -> acyclic
   orientation -> 3t-star-forest decomposition. No forestd subcommand
   runs this chain, so the benchmark calls the library the way
   `forestd decompose` calls a registry pipeline: default data plane,
   one domain, then the Verify check and colors_used it reports.

   The op prints one flushed line per stage: "loaded" once the instance
   is read, "pipeline" once the star forests exist, then one JSON line
   with the check's verdict. run.py times the stages by when these
   lines arrive, as it does for forestd's own report lines. The coloring
   is written to [coloring_out] after the JSON line, for run.py's own
   check. *)

module G = Nw_graphs.Multigraph
module Rounds = Nw_localsim.Rounds
module Verify = Nw_decomp.Verify
module H_partition = Nw_core.H_partition

(* forest-union instances: alpha is exact by construction *)
let alpha = 8
let epsilon = 1.0

let op ~instance ~coloring_out =
  let g =
    Span.with_ "graphs.read_edge_list" (fun () ->
        Nw_graphs.Graph_io.read_edge_list instance)
  in
  print_endline "loaded";
  let rounds = Rounds.create () in
  let hp =
    Span.with_ "core.hp_peel" (fun () ->
        H_partition.compute g ~epsilon ~alpha_star:alpha ~rounds)
  in
  let ids = Array.init (G.n g) Fun.id in
  let o = Span.with_ "core.hp_orient" (fun () -> H_partition.orientation g hp ~ids) in
  let c =
    Span.with_ "core.hp_star" (fun () ->
        H_partition.star_forest_decomposition g o ~ids ~rounds)
  in
  print_endline "pipeline";
  let bound = 3 * hp.H_partition.threshold in
  let verdict =
    Span.with_ "decomp.verify" (fun () ->
        Verify.all [ Verify.star_forest_decomposition c; Verify.uses_at_most c bound ])
  in
  let colors = Span.with_ "decomp.colors_used" (fun () -> Verify.colors_used c) in
  Printf.printf "{\"ok\":%b,\"error\":%s,\"forests\":%d,\"rounds\":%d}\n%!"
    (Result.is_ok verdict)
    (match verdict with
    | Ok () -> "null"
    | Error m -> Nw_obs.Json_lite.Emit.string_value m)
    colors (Rounds.total rounds);
  Nw_decomp.Coloring_io.write coloring_out c;
  (g, o, rounds)
