(* nwtrace: the traced run's processes. Each writes its span file
   (span.ml) and prints one JSON line of what the spans and counters
   measured after the op's own output.

     nwtrace augment INSTANCE SEED COLORING_OUT SPANS   traced fd-augment op
     nwtrace hpstar INSTANCE COLORING_OUT SPANS         traced sfd-hpstar op
     nwtrace replay GRAPH SCRIPT SEED [SPANS]           serve-churn replay *)

module G = Nw_graphs.Multigraph
module Rounds = Nw_localsim.Rounds
module H_partition = Nw_core.H_partition

let js = Nw_obs.Json_lite.Emit.string_value

let assoc l =
  "{" ^ String.concat "," (List.map (fun (k, v) -> js k ^ ":" ^ string_of_int v) l) ^ "}"

let floats l = "[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") l) ^ "]"

(* what a traced batch op reports besides its stage lines *)
let batch_trace ~rounds ~stats ~top_heap_words =
  Printf.printf "{\"spans\":%s,\"ledger\":%s,\"stats\":%s,\"top_heap_words\":%d}\n"
    (Span.summary_json ()) (assoc (Rounds.ledger rounds)) (assoc stats) top_heap_words

(* Cole-Vishkin on its own, over the rooted forests of the orientation:
   splits the star stage into coloring and emission. Runs after the op,
   on a throwaway ledger. *)
let time_cole_vishkin g o =
  let forests, parents = H_partition.forests_of_orientation g o in
  let t = Array.length parents in
  if t > 0 then begin
    let n = G.n g in
    let edge_forest =
      Array.init (G.m g) (fun e ->
          Option.value ~default:0 (Nw_decomp.Coloring.color forests e))
    in
    let parent_edge = Array.make (n * t) (-1) in
    Array.iteri (fun j pe -> Array.iteri (fun v p -> parent_edge.((v * t) + j) <- p) pe) parents;
    let ids = Array.init n Fun.id in
    Span.with_ "core.cole_vishkin" (fun () ->
        ignore
          (Nw_core.Cole_vishkin.three_color_forests g ~edge_forest ~parent_edge ~t ~ids
             ~rounds:(Rounds.create ())))
  end

let traced spans f =
  Span.enable ();
  f ();
  Span.write spans

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "augment"; instance; seed; coloring_out; spans ] ->
      traced spans (fun () ->
          let rounds, stats =
            Fdtrace.op ~instance ~seed:(int_of_string seed) ~coloring_out
          in
          batch_trace ~rounds ~stats ~top_heap_words:(top_heap_words ()))
  | [ "hpstar"; instance; coloring_out; spans ] ->
      traced spans (fun () ->
          let g, o, rounds = Hpstar.op ~instance ~coloring_out in
          let top_heap_words = top_heap_words () in
          time_cole_vishkin g o;
          batch_trace ~rounds ~stats:[] ~top_heap_words)
  | "replay" :: graph :: script :: seed :: rest ->
      let go () =
        let r = Replay.run ~graph ~script ~seed:(int_of_string seed) in
        Printf.printf
          "{\"problems\":[%s],\"create_s\":%.9f,\"decompose_s\":%.9f,\"insert_ms\":%s,\"delete_ms\":%s,\"churn_wall_s\":%.6f,\"fallback_ms\":%.6f,\"fallbacks\":%d,\"incremental_updates\":%d,\"spans\":%s}\n"
          (String.concat "," (List.map js r.problems))
          r.create_s r.decompose_s (floats r.insert_ms) (floats r.delete_ms) r.churn_wall_s
          r.fallback_ms r.fallbacks r.incremental (Span.summary_json ())
      in
      (match rest with [ spans ] -> traced spans go | _ -> go ())
  | _ ->
      prerr_endline "usage: see the header of perfbench/nwtrace.ml";
      exit 2
