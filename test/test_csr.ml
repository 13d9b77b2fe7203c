(* The order contract of the one graph representation (docs/data-plane.md).

   Part 1 — qcheck: on random multigraphs (parallel edges included),
   every Graph_sig.GRAPH operation of Multigraph, and the id maps of its
   derived graphs, must equal a reference adjacency kept in this file:
   the boxed-row build Multigraph used before its rows were packed.
   Iteration order is compared too, since the determinism contract of
   the whole repo is phrased over adjacency order.

   Part 2 — golden end-to-end: one engine-registry pipeline produces
   identical colorings and round ledgers at domains 1, 2 and 4; the
   message kernel under a fault plan produces the identical state vector
   and fault-timeline digest at every domain count. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Dpool = Nw_localsim.Dpool
module Net = Nw_localsim.Msg_net
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module EStore = Nw_engine.Store
module Artifact = Nw_engine.Artifact

let rng seed = Random.State.make [| seed; 0xc5a |]

(* random multigraph as an explicit edge list: duplicates (parallel
   edges) are likely at these densities, which is the point *)
let random_edges st n m =
  List.init m (fun _ ->
      let u = Random.State.int st n in
      let v = Random.State.int st (n - 1) in
      let v = if v >= u then v + 1 else v in
      (u, v))

(* ------------------------------------------------------------------ *)
(* the reference adjacency                                             *)
(* ------------------------------------------------------------------ *)

(* Boxed rows filled by one ascending pass over edge ids: row v lists
   (neighbor, edge) in ascending edge-id order. *)
let reference_rows n (edges : (int * int) array) =
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) (0, 0)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun e (u, v) ->
      adj.(u).(fill.(u)) <- (v, e);
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- (u, e);
      fill.(v) <- fill.(v) + 1)
    edges;
  adj

(* BFS over the reference rows from the sources [vs] up to depth [r];
   returns the vertices in visit order *)
let reference_bfs adj vs r =
  let dist = Array.make (Array.length adj) (-1) in
  let q = Queue.create () in
  let reach v d =
    if dist.(v) < 0 then begin
      dist.(v) <- d;
      Queue.add v q
    end
  in
  List.iter (fun v -> reach v 0) vs;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    order := u :: !order;
    if dist.(u) < r then
      Array.iter (fun (w, _) -> reach w (dist.(u) + 1)) adj.(u)
  done;
  List.rev !order

let incident_list g v =
  List.rev (G.fold_incident g v ~init:[] (fun acc w e -> (w, e) :: acc))

let ascending_where n p = List.filter p (List.init n Fun.id)

(* every GRAPH op of [g] against the reference built from [edges], plus
   the id maps of the derived graphs; raises on the first mismatch so
   qcheck reports the seed *)
let check_against_reference st g n (edges : (int * int) array) =
  let fail fmt = Printf.ksprintf failwith fmt in
  let adj = reference_rows n edges in
  let m = Array.length edges in
  if G.n g <> n then fail "n: %d vs %d" (G.n g) n;
  if G.m g <> m then fail "m: %d vs %d" (G.m g) m;
  Array.iteri
    (fun e (u, v) ->
      if G.endpoints g e <> (u, v) || G.src g e <> u || G.dst g e <> v then
        fail "endpoints %d" e;
      if G.other_endpoint g e u <> v || G.other_endpoint g e v <> u then
        fail "other_endpoint %d" e)
    edges;
  let max_deg =
    Array.fold_left (fun acc row -> max acc (Array.length row)) 0 adj
  in
  if G.max_degree g <> max_deg then fail "max_degree";
  for v = 0 to n - 1 do
    let row = Array.to_list adj.(v) in
    if G.degree g v <> List.length row then fail "degree %d" v;
    if G.incident g v <> adj.(v) then fail "incident %d" v;
    if incident_list g v <> row then fail "fold_incident order %d" v;
    let acc = ref [] in
    G.iter_incident g v (fun w e -> acc := (w, e) :: !acc);
    if List.rev !acc <> row then fail "iter_incident order %d" v
  done;
  if G.edges g <> edges then fail "edges";
  if List.rev (G.fold_edges (fun e u v acc -> (e, u, v) :: acc) g [])
     <> List.mapi (fun e (u, v) -> (e, u, v)) (Array.to_list edges)
  then fail "fold_edges order";
  let key (u, v) = (min u v, max u v) in
  let keys = List.sort_uniq compare (List.map key (Array.to_list edges)) in
  if G.is_simple g <> (List.length keys = m) then fail "is_simple";
  for v = 0 to min (n - 1) 7 do
    for r = 0 to 3 do
      if G.ball g v r <> List.rev (reference_bfs adj [ v ] r) then
        fail "ball %d r=%d" v r
    done
  done;
  let set = ascending_where n (fun v -> v mod 3 = 0) in
  for r = 0 to 3 do
    let reached = reference_bfs adj set r in
    if
      Array.to_list (G.ball_of_set g set r)
      <> List.init n (fun v -> List.mem v reached)
    then fail "ball_of_set r=%d" r
  done;
  (* derived graphs: ids renumbered in ascending original order *)
  let members = Array.init n (fun _ -> Random.State.bool st) in
  let sub, vmap, emap = G.induced g members in
  if Array.to_list vmap <> ascending_where n (fun v -> members.(v)) then
    fail "induced vmap";
  let both_in e = members.(fst edges.(e)) && members.(snd edges.(e)) in
  if Array.to_list emap <> ascending_where m both_in then fail "induced emap";
  Array.iteri
    (fun e' e ->
      if (vmap.(G.src sub e'), vmap.(G.dst sub e')) <> edges.(e) then
        fail "induced edge %d" e')
    emap;
  let keep = Array.init m (fun _ -> Random.State.bool st) in
  let sub, emap = G.subgraph_of_edges g keep in
  if Array.to_list emap <> ascending_where m (fun e -> keep.(e)) then
    fail "subgraph emap";
  if G.n sub <> n || G.edges sub <> Array.map (fun e -> edges.(e)) emap then
    fail "subgraph edges";
  for r = 1 to 2 do
    (* an edge v-u for u > v in the BFS visit order from each v *)
    let expected =
      List.concat_map
        (fun v ->
          List.filter_map
            (fun u -> if u > v then Some (v, u) else None)
            (reference_bfs adj [ v ] r))
        (List.init n Fun.id)
    in
    if Array.to_list (G.edges (G.power g r)) <> expected then
      fail "power r=%d" r
  done

let prop_reference =
  QCheck.Test.make ~name:"Multigraph == reference adjacency on every op"
    ~count:200 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 30 in
      let edges = random_edges st n (Random.State.int st 80) in
      check_against_reference st (G.of_edges n edges) n (Array.of_list edges);
      true)

let prop_builder =
  QCheck.Test.make ~name:"interleaved builders assign identical edge ids"
    ~count:100 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 20 in
      let b = G.create_builder n in
      let edges = ref [] in
      for id = 0 to Random.State.int st 60 - 1 do
        let u = Random.State.int st n in
        let v = Random.State.int st (n - 1) in
        let v = if v >= u then v + 1 else v in
        if G.add_edge b u v <> id then failwith "edge id mismatch";
        edges := (u, v) :: !edges;
        (* a build in the middle must not disturb later ids *)
        if id mod 7 = 3 then ignore (G.build b)
      done;
      check_against_reference st (G.build b) n
        (Array.of_list (List.rev !edges));
      true)

let prop_generated_families =
  QCheck.Test.make ~name:"reference differential over generator families"
    ~count:40 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 40 in
      let g =
        match Random.State.int st 3 with
        | 0 -> Gen.forest_union st n 3
        | 1 -> Gen.line_multigraph (max 2 (n / 4)) 5
        | _ -> Gen.erdos_renyi st n 0.2
      in
      check_against_reference st g (G.n g) (G.edges g);
      true)

(* ------------------------------------------------------------------ *)
(* golden end-to-end: one registry pipeline, K in {1,2,4}             *)
(* ------------------------------------------------------------------ *)

(* colorings compared edge-by-edge through accessors (the repo's DET002
   discipline: no polymorphic compare on graph-like values) *)
let coloring_fingerprint g c =
  List.init (G.m g) (fun e -> Coloring.color c e)

let run_pipeline g ~domains =
  Dpool.with_domains domains @@ fun () ->
  let entry =
    match Registry.find "lsfd" with Some e -> e | None -> assert false
  in
  let rounds = Rounds.create () in
  let rng = Random.State.make [| 7; 0x601d |] in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha = 3 }
  in
  let ctx = Engine.ctx ~rng ~rounds in
  let init = EStore.put EStore.empty "graph" (Artifact.Graph g) in
  let store = Engine.run ctx pipeline ~init in
  let coloring = EStore.coloring store "coloring" in
  (coloring_fingerprint g coloring, Rounds.ledger rounds)

let golden_pipeline () =
  let g = Gen.forest_union (rng 91) 120 3 in
  let reference = run_pipeline g ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (pair (list (option int)) (list (pair string int))))
        (Printf.sprintf "lsfd pipeline identical at K=%d" domains)
        reference
        (run_pipeline g ~domains))
    [ 2; 4 ]

(* the message kernel under a fault plan: states, delivered-message
   count, and the order-sensitive timeline digest must be invariant
   across domain counts (the faulty path is canonical) *)
let run_faulty_flood ~domains =
  Dpool.with_domains domains @@ fun () ->
  let g = Gen.forest_union (rng 17) 60 3 in
  let plan =
    match Nw_chaos.Plan.of_string "drop=0.2,dup=0.1,delay=0.1:2,reorder" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let faults =
    match Nw_chaos.Inject.compile plan ~seed:5 () with
    | Some f -> f
    | None -> assert false
  in
  let (states, delivered), stats =
    Net.with_faults faults @@ fun () ->
    let rounds = Rounds.create () in
    let net = Net.create g ~rounds ~init:(fun v -> v) in
    for _ = 1 to 6 do
      Net.round net ~label:"flood"
        ~send:(fun v st -> G.fold_incident g v ~init:[] (fun acc _ e -> (e, st) :: acc) |> List.rev)
        ~recv:(fun _ st msgs ->
          List.fold_left (fun acc (_, m) -> max acc m) st msgs)
    done;
    (Array.to_list (Net.states net), Net.messages_delivered net)
  in
  (states, delivered, stats.Net.digest)

let golden_chaos () =
  let s0, d0, digest0 = run_faulty_flood ~domains:1 in
  List.iter
    (fun domains ->
      let s, d, digest = run_faulty_flood ~domains in
      let tag = Printf.sprintf "K=%d" domains in
      Alcotest.(check (list int)) (tag ^ " states") s0 s;
      Alcotest.(check int) (tag ^ " delivered") d0 d;
      Alcotest.(check int64) (tag ^ " digest") digest0 digest)
    [ 2; 4 ]

(* the counting round (H-partition peel) across domain counts, with
   per-label ledgers compared too *)
let golden_round_count () =
  let g = Gen.forest_union (rng 33) 300 4 in
  let peel ~domains =
    Dpool.with_domains domains @@ fun () ->
    let rounds = Rounds.create () in
    let hp =
      Nw_core.H_partition.compute g ~epsilon:0.5 ~alpha_star:4 ~rounds
    in
    (Array.to_list hp.Nw_core.H_partition.layer, Rounds.ledger rounds)
  in
  let reference = peel ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (pair (list int) (list (pair string int))))
        (Printf.sprintf "h-partition identical at K=%d" domains)
        reference (peel ~domains))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* streamed rounds vs the generic per-message round                    *)
(* ------------------------------------------------------------------ *)

(* [round_count], [round_exchange] and [round_exchange_edges] stream the
   adjacency rows. Each is specified as [round] driven by the
   explicit all-incident send and the matching recv adapter; this oracle
   runs exactly that per-message program beside the streamed one, on
   random multigraphs, fault-free and under a fault plan. The recvs are
   order-insensitive (a commutative sum), as the primitives require. *)
let all_incident g v payload =
  List.rev (G.fold_incident g v ~init:[] (fun acc _ e -> (e, payload e) :: acc))

let iter_msgs msgs f = List.iter (fun (e, x) -> f e x) msgs

let run_rounds g ~oracle =
  let rounds = Rounds.create () in
  let cnet = Net.create g ~rounds ~init:(fun v -> v) in
  let xnet = Net.create g ~rounds ~init:(fun v -> v * 3) in
  for r = 1 to 5 do
    let decide v st = (st + v + r) mod 3 <> 0 in
    let recv_count v st k = ((st * 7) + k + v) land 0xfffff in
    if oracle then
      Net.round cnet ~label:"count"
        ~send:(fun v st -> if decide v st then all_incident g v ignore else [])
        ~recv:(fun v st msgs -> recv_count v st (List.length msgs))
    else Net.round_count cnet ~label:"count" ~decide ~recv:recv_count;
    let gather st iter =
      let acc = ref st in
      iter (fun e x -> acc := !acc + (((e * 31) + x) land 0xffff));
      !acc land 0xfffff
    in
    let value v st = (st + v + r) land 0xff in
    if oracle then
      Net.round xnet ~label:"exchange"
        ~send:(fun v st -> all_incident g v (fun _ -> value v st))
        ~recv:(fun _ st msgs -> gather st (iter_msgs msgs))
    else
      Net.round_exchange xnet ~label:"exchange" ~value
        ~recv:(fun _ st iter -> gather st iter);
    let value_e v st e = (st + (v * e) + r) land 0xff in
    if oracle then
      Net.round xnet ~label:"exchange-edges"
        ~send:(fun v st -> all_incident g v (value_e v st))
        ~recv:(fun _ st msgs -> gather st (iter_msgs msgs))
    else
      Net.round_exchange_edges xnet ~label:"exchange-edges" ~value:value_e
        ~recv:(fun _ st iter -> gather st iter)
  done;
  ( Array.to_list (Net.states cnet) @ Array.to_list (Net.states xnet),
    (Net.messages_delivered cnet, Net.messages_delivered xnet),
    Rounds.ledger rounds )

let chaos_plan n =
  let spec =
    Printf.sprintf "drop=0.15,dup=0.1x1,delay=0.1:2,reorder,restart=%d@3+2"
      (n / 2)
  in
  match Nw_chaos.Plan.of_string spec with
  | Ok p -> p
  | Error msg -> failwith msg

let run_rounds_under g ~chaos ~oracle =
  if not chaos then (run_rounds g ~oracle, None)
  else
    let faults =
      match Nw_chaos.Inject.compile (chaos_plan (G.n g)) ~seed:11 () with
      | Some f -> f
      | None -> assert false
    in
    let result, stats = Net.with_faults faults (fun () -> run_rounds g ~oracle) in
    (result, Some (stats.Net.digest, stats.Net.restarts))

let prop_streamed_rounds_match_generic =
  QCheck.Test.make
    ~name:"streamed rounds == generic round with per-message send/recv"
    ~count:60 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 30 in
      let g = G.of_edges n (random_edges st n (Random.State.int st 90)) in
      List.for_all
        (fun chaos ->
          let streamed = run_rounds_under g ~chaos ~oracle:false in
          let generic = run_rounds_under g ~chaos ~oracle:true in
          if streamed <> generic then
            QCheck.Test.fail_reportf "mismatch%s"
              (if chaos then " under faults" else "")
          else true)
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* adversarial-scheduling merge determinism                            *)
(* ------------------------------------------------------------------ *)

(* The Dpool/Msg_net merge discipline claims byte-identical results at
   any domain count *regardless of which shard finishes first*. Attack
   that claim directly: every send/recv callback busy-waits for a
   pseudo-random number of iterations keyed by (seed, vertex, round),
   so shard completion order varies wildly between domain counts (and
   between property instances), while states, delivered-message
   counts, the per-label ledger, and the per-domain work counter must
   all stay exactly equal to the sequential run. *)
let adversarial_spin seed v round =
  let h = (seed * 0x9e3779b9) lxor (v * 0x85ebca6b) lxor (round * 0xc2b2ae35) in
  let iters = (h land 0x3fff) + ((h lsr 14) land 0xfff) in
  let acc = ref 0 in
  for i = 1 to iters do
    acc := !acc + (Sys.opaque_identity i)
  done;
  ignore (Sys.opaque_identity !acc)

let run_adversarial_protocol ~seed ~domains =
  Dpool.with_domains domains @@ fun () ->
  let n = 5 + (seed mod 36) in
  let g = Gen.forest_union (rng seed) n (2 + (seed mod 3)) in
  let rounds = Rounds.create () in
  let base = Rounds.domain_total () in
  let net = Net.create g ~rounds ~init:(fun v -> (v * 31) land 0xffff) in
  let round_no = ref 0 in
  for _ = 1 to 4 do
    incr round_no;
    let r = !round_no in
    Net.round net ~label:"adversarial"
      ~send:(fun v st ->
        adversarial_spin seed v r;
        G.fold_incident g v ~init:[]
          (fun acc _ e -> (e, (st + v) land 0xffff) :: acc)
        |> List.rev)
      ~recv:(fun v st msgs ->
        adversarial_spin (seed + 1) v r;
        (* order-sensitive fold: any delivery-order wobble shows up *)
        List.fold_left
          (fun acc (_, m) -> ((acc * 131) + m) land 0xfffffff)
          ((st * 7) + v) msgs)
  done;
  ( Array.to_list (Net.states net),
    Net.messages_delivered net,
    Rounds.ledger rounds,
    Rounds.domain_total () - base )

let prop_adversarial_merge =
  QCheck.Test.make
    ~name:"Msg_net merge is schedule-independent (K=1/2/4, spin-perturbed)"
    ~count:10 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let reference = run_adversarial_protocol ~seed ~domains:1 in
      List.for_all
        (fun domains -> run_adversarial_protocol ~seed ~domains = reference)
        [ 2; 4 ])

(* same adversary, full engine: an lsfd pipeline run under perturbed
   scheduling must reproduce the K=1 coloring and ledger exactly *)
let adversarial_pipeline () =
  let g = Gen.forest_union (rng 57) 120 3 in
  let reference = run_pipeline g ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (pair (list (option int)) (list (pair string int))))
        (Printf.sprintf "lsfd pipeline identical at K=%d" domains)
        reference
        (run_pipeline g ~domains))
    [ 2; 4 ]

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "csr"
    [
      qsuite "differential"
        [ prop_reference; prop_builder; prop_generated_families ];
      ( "golden",
        [
          Alcotest.test_case "lsfd pipeline across domains" `Quick
            golden_pipeline;
          Alcotest.test_case "fault digest invariant" `Quick golden_chaos;
          Alcotest.test_case "round_count across domains" `Quick
            golden_round_count;
        ] );
      qsuite "streamed-rounds" [ prop_streamed_rounds_match_generic ];
      qsuite "adversarial" [ prop_adversarial_merge ];
      ( "adversarial-pipeline",
        [
          Alcotest.test_case "lsfd under perturbed scheduling" `Quick
            adversarial_pipeline;
        ] );
    ]
