module G = Nw_graphs.Multigraph

type ball = {
  center : int;
  vertices : int list;
  edges : (int * int * int) list;
}

(* a record is one vertex's identity plus its incident edge list; records
   spread one hop per round *)
type record = { owner : int; incident : (int * int * int) list }

type state = (int, record) Hashtbl.t

(* explicit comparators (same order as the polymorphic compare they
   replace): canonical ball views must not depend on structural compare *)
let compare_edge (e1, a1, b1) (e2, a2, b2) =
  let c = Int.compare e1 e2 in
  if c <> 0 then c
  else
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2

let collect g ~radius ~rounds =
  let n = G.n g in
  let init v : state =
    let tbl = Hashtbl.create 16 in
    let incident =
      List.rev
        (G.fold_incident g v ~init:[] (fun acc _ e ->
             let u', v' = G.endpoints g e in
             (e, u', v') :: acc))
    in
    Hashtbl.replace tbl v { owner = v; incident };
    tbl
  in
  let net = Msg_net.create g ~rounds ~init in
  let send v (st : state) =
    ignore v;
    let facts = Hashtbl.fold (fun _ r acc -> r :: acc) st [] in
    List.rev (G.fold_incident g v ~init:[] (fun acc _ e -> (e, facts) :: acc))
  in
  let recv v st msgs =
    ignore v;
    List.iter
      (fun (_, facts) ->
        List.iter
          (fun r ->
            if not (Hashtbl.mem st r.owner) then Hashtbl.replace st r.owner r)
          facts)
      msgs;
    st
  in
  for _ = 1 to radius do
    Msg_net.round net ~label:"ball-view/collect" ~send ~recv
  done;
  Array.init n (fun v ->
      let st = Msg_net.state net v in
      let vertices =
        Hashtbl.fold (fun owner _ acc -> owner :: acc) st []
        |> List.sort Int.compare
      in
      let known u = Hashtbl.mem st u in
      let edges = Hashtbl.create 64 in
      Hashtbl.iter
        (fun _ r ->
          List.iter
            (fun (e, a, b) ->
              if known a && known b then Hashtbl.replace edges e (a, b))
            r.incident)
        st;
      let edges =
        Hashtbl.fold (fun e (a, b) acc -> (e, a, b) :: acc) edges []
        |> List.sort compare_edge
      in
      { center = v; vertices; edges })

module Scratch = Nw_graphs.Scratch

(* central BFS oracle on generation-stamped scratch: [reference_all]
   resets in O(ball size) per center instead of allocating two O(n)
   arrays per query *)
let reference_into g ~radius v ~dist ~members =
  Scratch.Ints.reset dist;
  let q = Queue.create () in
  Scratch.Ints.set dist v 0;
  Queue.add v q;
  let acc = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    let d = Scratch.Ints.get dist u ~default:0 in
    acc := u :: !acc;
    if d < radius then
      G.iter_incident g u (fun w _ ->
          if not (Scratch.Ints.mem dist w) then begin
            Scratch.Ints.set dist w (d + 1);
            Queue.add w q
          end)
  done;
  let vertices = List.sort Int.compare !acc in
  Scratch.Marks.reset members;
  List.iter (fun u -> Scratch.Marks.add members u) vertices;
  let edges =
    G.fold_edges
      (fun e a b acc ->
        if Scratch.Marks.mem members a && Scratch.Marks.mem members b then
          (e, a, b) :: acc
        else acc)
      g []
    |> List.sort compare_edge
  in
  { center = v; vertices; edges }

let reference g ~radius v =
  let n = G.n g in
  reference_into g ~radius v ~dist:(Scratch.Ints.create n)
    ~members:(Scratch.Marks.create n)

let reference_all g ~radius =
  let n = G.n g in
  let dist = Scratch.Ints.create n and members = Scratch.Marks.create n in
  Array.init n (fun v -> reference_into g ~radius v ~dist ~members)
