(* Golden digests of every registry pipeline.

   For each registry entry x {forest-union, erdos-renyi, grid,
   preferential} x 2 seeds, the pipeline runs the way `forestd decompose`
   runs it (alpha computed exactly, RNG seeded with the seed) twice:
   fault-free, and under the chaos plan [drop=0.1,delay=0.2:2,reorder]
   (chaos seed 1). Each run is reduced to one MD5 over
   - the saved decomposition (the `--save` coloring_io text), or the
     orientation / pseudo-forest assignment for entries yielding those;
   - the Rounds ledger (label, rounds) in first-charge order;
   - under chaos, every fault counter and the fault-timeline digest.
   A run the pipeline refuses records the refusal instead.

   test/fixtures/golden_digests.txt pins the digests. They were recorded
   before the data plane was reduced to one representation, so they hold
   every later refactor to the outputs of the original one. To re-record
   after an intended algorithmic change:

     NW_GOLDEN_WRITE=$PWD/test/fixtures/golden_digests.txt \
       dune exec test/test_golden.exe *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Rounds = Nw_localsim.Rounds
module Msg_net = Nw_localsim.Msg_net
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module Store = Nw_engine.Store
module Artifact = Nw_engine.Artifact

let fixture = "fixtures/golden_digests.txt"
let plan = "drop=0.1,delay=0.2:2,reorder"
let seeds = [ 1; 2 ]

let families =
  [
    ("forest-union", fun rng -> Gen.forest_union rng 48 3);
    ("erdos-renyi", fun rng -> Gen.erdos_renyi rng 48 0.1);
    ("grid", fun _ -> Gen.grid 7 7);
    ("preferential", fun rng -> Gen.preferential_attachment rng 48 3);
  ]

let output_text entry store =
  match entry.Registry.yields with
  | Registry.Coloring_out ->
      Nw_decomp.Coloring_io.to_string (Store.coloring store "coloring")
  | Registry.Orientation_out ->
      let o = Store.orientation store "orientation" in
      let g = Nw_graphs.Orientation.graph o in
      String.concat " "
        (List.init (G.m g) (fun e ->
             string_of_int (Nw_graphs.Orientation.head o e)))
  | Registry.Pseudo_out ->
      let a, k = Store.assignment store "assignment" in
      String.concat " "
        (string_of_int k :: Array.to_list (Array.map string_of_int a))

let ledger_text rounds =
  String.concat ";"
    (List.map (fun (l, r) -> Printf.sprintf "%s=%d" l r) (Rounds.ledger rounds))

(* a refusal is recorded by kind and message only: no backtrace or
   source position, which would move with unrelated edits *)
let refusal = function
  | Invalid_argument m -> "invalid_argument:" ^ m
  | Failure m -> "failure:" ^ m
  | exn -> "raised:" ^ Printexc.exn_slot_name exn

let run_once entry g ~alpha ~seed =
  let rng = Random.State.make [| seed |] in
  let rounds = Rounds.create () in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha }
  in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  let store = Engine.run (Engine.ctx ~rng ~rounds) pipeline ~init in
  output_text entry store ^ "\n" ^ ledger_text rounds

let fault_text (s : Msg_net.fault_stats) =
  Printf.sprintf
    "drops=%d dups=%d delays=%d crashes=%d restarts=%d reorders=%d digest=%Lx"
    s.drops s.dups s.delays s.crashes s.restarts s.reorders s.digest

let digest entry family seed =
  let build = List.assoc family families in
  let g = build (Random.State.make [| seed |]) in
  let alpha = fst (Nw_baseline.Gabow_westermann.arboricity g) in
  let plain = try run_once entry g ~alpha ~seed with exn -> refusal exn in
  let faults =
    match Nw_chaos.Plan.of_string plan with
    | Ok p -> Option.get (Nw_chaos.Inject.compile p ~seed:1 ())
    | Error m -> failwith m
  in
  let chaotic =
    match
      Msg_net.with_faults faults (fun () -> run_once entry g ~alpha ~seed)
    with
    | out, stats -> out ^ "\n" ^ fault_text stats
    | exception exn -> refusal exn
  in
  Digest.to_hex (Digest.string (plain ^ "\n--\n" ^ chaotic))

let keys =
  List.concat_map
    (fun entry ->
      List.concat_map
        (fun (family, _) -> List.map (fun seed -> (entry, family, seed)) seeds)
        families)
    Registry.all

let key_name (entry, family, seed) =
  Printf.sprintf "%s %s %d" entry.Registry.name family seed

let read_fixture () =
  let ic = open_in fixture in
  let rec loop acc =
    match input_line ic with
    | line -> (
        match String.rindex_opt line ' ' with
        | Some i when line.[0] <> '#' ->
            let key = String.sub line 0 i in
            let d = String.sub line (i + 1) (String.length line - i - 1) in
            loop ((key, d) :: acc)
        | _ -> loop acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let write_fixture path =
  let oc = open_out path in
  output_string oc
    "# registry entry, family, seed, MD5 of (fault-free run, chaos run); \
     see test/test_golden.ml\n";
  List.iter
    (fun ((entry, family, seed) as k) ->
      Printf.fprintf oc "%s %s\n" (key_name k) (digest entry family seed))
    keys;
  close_out oc

let test_entry entry () =
  let expected = read_fixture () in
  List.iter
    (fun (family, _) ->
      List.iter
        (fun seed ->
          let k = (entry, family, seed) in
          match List.assoc_opt (key_name k) expected with
          | None -> Alcotest.failf "%s: no golden digest recorded" (key_name k)
          | Some d ->
              Alcotest.(check string) (key_name k) d (digest entry family seed))
        seeds)
    families

let () =
  match Sys.getenv_opt "NW_GOLDEN_WRITE" with
  | Some path -> write_fixture path
  | None ->
      Alcotest.run "golden"
        [
          ( "registry",
            List.map
              (fun e ->
                Alcotest.test_case e.Registry.name `Quick (test_entry e))
              Registry.all );
        ]
