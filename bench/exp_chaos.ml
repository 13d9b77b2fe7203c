(* CHAOS — fault injection & recovery (lib/chaos; docs/fault-model.md).

   The paper's model is fail-free and synchronous; this experiment
   deliberately breaks each assumption in turn — message loss,
   duplication, delay, link flap, adversarial delivery order, node
   crash, crash-restart-with-state-loss — on the two algorithms that run
   on the genuine message-passing kernel (H-partition peeling and the
   Cole–Vishkin star-forest pipeline), classifies every run by
   re-verification (valid / detectably-invalid / silently-corrupt), and
   measures how often the bounded retry-with-backoff recovery policy
   rescues a failing epoch. Everything is seed-driven: the whole table
   is a deterministic function of the plan/seed matrix. *)

open Exp_common
module H = Nw_core.H_partition
module Net = Nw_localsim.Msg_net
module Plan = Nw_chaos.Plan
module Harness = Nw_chaos.Harness

(* H-partition validity: every vertex assigned a layer, and with at most
   [threshold] incident edges toward its own or a higher layer *)
let verify_h g (hp : H.t) =
  let n = G.n g in
  let rec unassigned v =
    if v >= n then None
    else if hp.H.layer.(v) < 0 then Some v
    else unassigned (v + 1)
  in
  match unassigned 0 with
  | Some v -> Error (Printf.sprintf "vertex %d has no layer" v)
  | None ->
      let bad = ref None in
      for v = 0 to n - 1 do
        let up =
          G.fold_incident g v ~init:0 (fun acc w _ ->
              if hp.H.layer.(w) >= hp.H.layer.(v) then acc + 1 else acc)
        in
        if up > hp.H.threshold && !bad = None then bad := Some (v, up)
      done;
      (match !bad with
      | Some (v, up) ->
          Error
            (Printf.sprintf "vertex %d: %d same-or-higher neighbors > t=%d" v
               up hp.H.threshold)
      | None -> Ok ())

let plans =
  [
    "drop=0.15";
    "delay=0.3:2";
    "dup=0.3x2,reorder";
    "flap=0:2/2";
    "crash=0@2";
    "restart=1@1+2";
    "drop=0.6";
  ]

let parse_plan s =
  match Plan.of_string s with
  | Ok p -> p
  | Error msg -> failwith msg

let run () =
  section "CHAOS: fault injection & recovery on the message kernel";
  let st = rng 0xc4a05 in
  let g = Gen.forest_union st 48 3 in
  let gs = Gen.forest_union_simple st 48 3 in
  let ids = Array.init (G.n gs) (fun v -> v) in
  let run_h () =
    let rounds = Rounds.create () in
    H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds
  in
  let run_star () =
    let rounds = Rounds.create () in
    let hp = H.compute gs ~epsilon:0.5 ~alpha_star:3 ~rounds in
    let o = H.orientation gs hp ~ids in
    H.star_forest_decomposition gs o ~ids ~rounds
  in
  (* golden differential: empty plan == no chaos context, byte for byte *)
  let plain, under_empty =
    Harness.differential ~seed:1 ~run:(fun () ->
        let hp = run_h () in
        Array.to_list hp.H.layer)
  in
  out "golden differential (empty plan): %s\n"
    (if List.equal Int.equal plain under_empty then "identical" else "DIVERGED");
  let matrix (label, runv, verify) =
    List.concat_map
      (fun plan_str ->
        let plan = parse_plan plan_str in
        List.map
          (fun seed ->
            let r =
              Harness.run_epochs ~plan ~seed ~epochs:2
                ~policy:Harness.default_policy ~verify ~run:runv ()
            in
            let sum f =
              List.fold_left
                (fun acc (ep : Harness.epoch) ->
                  List.fold_left
                    (fun acc (a : Harness.attempt) -> acc + f a.Harness.counts)
                    acc ep.Harness.attempts)
                0 r.Harness.epochs
            in
            [
              plan_str;
              label;
              d seed;
              d r.Harness.valid;
              d r.Harness.detected;
              d r.Harness.corrupt;
              d r.Harness.recoveries;
              d (sum (fun c -> c.Harness.drops));
              d (sum (fun c -> c.Harness.dups));
              d (sum (fun c -> c.Harness.delays));
              d (sum (fun c -> c.Harness.restarts));
            ])
          [ 1; 2; 3 ])
      plans
  in
  table
    ~title:
      "fault matrix: 2 epochs per (plan, seed), default recovery policy \
       (2 retries, decay 0.5)"
    ~header:
      [
        "plan"; "algo"; "seed"; "valid"; "det"; "corr"; "rec"; "drops";
        "dups"; "delays"; "restarts";
      ]
    ~rows:
      (matrix ("h-part", (fun () -> run_h ()), verify_h g)
      @ matrix
          ( "star",
            (fun () -> run_star ()),
            fun c -> Nw_decomp.Verify.star_forest_decomposition c ));
  (* deterministic replay: the same (plan, seed) pair twice must agree on
     every outcome and on the fault-timeline digests *)
  let plan = parse_plan "drop=0.25,delay=0.2:2,reorder" in
  let fingerprint () =
    let r =
      Harness.run_epochs ~plan ~seed:7 ~epochs:3 ~policy:Harness.no_retry
        ~verify:(verify_h g) ~run:run_h ()
    in
    List.map
      (fun (ep : Harness.epoch) ->
        List.map
          (fun (a : Harness.attempt) ->
            ( Harness.outcome_label a.Harness.outcome,
              a.Harness.counts.Harness.digest ))
          ep.Harness.attempts)
      r.Harness.epochs
  in
  let f1 = fingerprint () and f2 = fingerprint () in
  let same =
    List.equal
      (List.equal (fun (o1, d1) (o2, d2) ->
           String.equal o1 o2 && Int64.equal d1 d2))
      f1 f2
  in
  out "deterministic replay (plan drop=0.25,delay=0.2:2,reorder seed 7): %s\n"
    (if same then "identical timelines" else "DIVERGED");
  if not same then failwith "chaos: replay diverged";
  if not (List.equal Int.equal plain under_empty) then
    failwith "chaos: golden differential diverged";
  flush_out ()
