(* The traced fd-augment op: what `forestd decompose --algorithm augment`
   does, with a span around each public call. Each pass's [run] closure
   of the registry pipeline is wrapped in a span named after the pass
   ("fd.partial_color" -> "core.partial_color"). Prints the same stage
   lines as hpstar.ml and writes the coloring for run.py's check.
   Returns the round ledger and the fd_stats fields. *)

module G = Nw_graphs.Multigraph
module Rounds = Nw_localsim.Rounds
module Verify = Nw_decomp.Verify
module Engine = Nw_engine.Engine
module Registry = Nw_engine.Registry
module Store = Nw_engine.Store

let alpha = 8
let epsilon = 0.5

let wrap (p : Engine.pass) =
  let layer =
    match String.index_opt p.Engine.name '.' with
    | Some i -> String.sub p.name (i + 1) (String.length p.name - i - 1)
    | None -> p.name
  in
  { p with run = (fun ctx st -> Span.with_ ("core." ^ layer) (fun () -> p.run ctx st)) }

let op ~instance ~seed ~coloring_out =
  let g =
    Span.with_ "graphs.read_edge_list" (fun () ->
        Nw_graphs.Graph_io.read_edge_list instance)
  in
  print_endline "loaded";
  let entry = Option.get (Registry.find "augment") in
  let pipeline = entry.Registry.build { Registry.graph = g; epsilon; alpha } in
  let pipeline = { pipeline with Engine.passes = List.map wrap pipeline.Engine.passes } in
  let rounds = Rounds.create () in
  let ctx = Engine.ctx ~rng:(Random.State.make [| seed |]) ~rounds in
  let init = Store.put Store.empty "graph" (Nw_engine.Artifact.Graph g) in
  let store = Span.with_ "engine.run" (fun () -> Engine.run ctx pipeline ~init) in
  let c = Store.coloring store "coloring" in
  let s = Store.fd_stats store "fd_stats" in
  print_endline "pipeline";
  let verdict = Span.with_ "decomp.verify" (fun () -> Verify.forest_decomposition c) in
  let colors = Span.with_ "decomp.colors_used" (fun () -> Verify.colors_used c) in
  ignore (Span.with_ "decomp.diameter" (fun () -> Verify.max_forest_diameter c));
  Printf.printf "{\"ok\":%b,\"error\":%s,\"forests\":%d,\"rounds\":%d}\n%!"
    (Result.is_ok verdict)
    (match verdict with
    | Ok () -> "null"
    | Error m -> Nw_obs.Json_lite.Emit.string_value m)
    colors (Rounds.total rounds);
  Nw_decomp.Coloring_io.write coloring_out c;
  ( rounds,
    [
      ("max_sequence_length", s.Nw_core.Forest_algo.max_sequence_length);
      ("stalls", s.Nw_core.Forest_algo.stalls);
      ("leftover_edges", s.Nw_core.Forest_algo.leftover_edges);
    ] )
