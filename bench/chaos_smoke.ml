(* Chaos smoke gate (`dune build @chaos-smoke`, part of @ci).

   A quick seeded fault matrix over the genuine message-passing kernel
   that hard-asserts the three invariants the fault-injection subsystem
   promises (docs/fault-model.md):

     1. golden differential — running under the compiled *empty* plan is
        identical (colors and charged rounds) to running with no chaos
        context at all;
     2. deterministic replay — the same (plan, seed) pair produces the
        same outcome classification and the same fault-timeline digest
        on consecutive runs;
     3. classification sanity — every epoch of a 3-seed fault matrix
        lands in exactly one of valid / detected / corrupt.

   Exits nonzero (with a one-line diagnosis) on any violation. Instances
   are small; the whole gate completes in well under 5 seconds. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module H = Nw_core.H_partition
module Rounds = Nw_localsim.Rounds
module Plan = Nw_chaos.Plan
module Harness = Nw_chaos.Harness

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("chaos-smoke: FAIL: " ^ msg);
      exit 1)
    fmt

let parse s =
  match Plan.of_string s with
  | Ok p -> p
  | Error m -> fail "plan %S does not parse: %s" s m

(* every vertex assigned a layer, each with <= threshold same-or-higher
   incident edges — the H-partition invariant of Theorem 2.1 *)
let verify_h g (hp : H.t) =
  let n = G.n g in
  let bad = ref None in
  for v = 0 to n - 1 do
    if hp.H.layer.(v) < 0 && !bad = None then
      bad := Some (Printf.sprintf "vertex %d unassigned" v)
    else begin
      let up =
        G.fold_incident g v ~init:0 (fun acc w _ ->
            if hp.H.layer.(w) >= hp.H.layer.(v) then acc + 1 else acc)
      in
      if up > hp.H.threshold && !bad = None then
        bad := Some (Printf.sprintf "vertex %d: %d > t=%d" v up hp.H.threshold)
    end
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

let () =
  let g = Gen.forest_union (Random.State.make [| 0x5707e |]) 40 3 in
  let compute () =
    let rounds = Rounds.create () in
    let hp = H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds in
    (hp, Rounds.total rounds)
  in
  let run_h () =
    let hp, total = compute () in
    (Array.to_list hp.H.layer, total)
  in
  (* 1. golden differential *)
  let (l1, r1), (l2, r2) = Harness.differential ~seed:1 ~run:run_h in
  if not (List.equal Int.equal l1 l2) then
    fail "golden differential: layers diverged under the empty plan";
  if r1 <> r2 then
    fail "golden differential: charged rounds diverged (%d vs %d)" r1 r2;
  (* 2 + 3. fault matrix with replay check *)
  let plans = [ "drop=0.2"; "delay=0.25:2,reorder"; "restart=0@1+1" ] in
  let fingerprint plan seed =
    let r =
      Harness.run_epochs ~plan ~seed ~epochs:1 ~policy:Harness.no_retry
        ~verify:(verify_h g)
        ~run:(fun () -> fst (compute ()))
        ()
    in
    ( r.Harness.valid + r.Harness.detected + r.Harness.corrupt,
      List.concat_map
        (fun (ep : Harness.epoch) ->
          List.map
            (fun (a : Harness.attempt) ->
              ( Harness.outcome_label a.Harness.outcome,
                a.Harness.counts.Harness.digest ))
            ep.Harness.attempts)
        r.Harness.epochs )
  in
  List.iter
    (fun plan_str ->
      let plan = parse plan_str in
      List.iter
        (fun seed ->
          let total1, f1 = fingerprint plan seed in
          let total2, f2 = fingerprint plan seed in
          if total1 <> 1 then
            fail "plan %S seed %d: epoch classified %d times" plan_str seed
              total1;
          let same =
            total1 = total2
            && List.equal
                 (fun (o1, d1) (o2, d2) ->
                   String.equal o1 o2 && Int64.equal d1 d2)
                 f1 f2
          in
          if not same then
            fail "plan %S seed %d: replay diverged" plan_str seed)
        [ 1; 2; 3 ])
    plans;
  print_endline
    "chaos-smoke: ok (golden differential, deterministic replay, 3x3 fault \
     matrix)"
