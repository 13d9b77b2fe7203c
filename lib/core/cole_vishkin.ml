module G = Nw_graphs.Multigraph
module Net = Nw_localsim.Msg_net
module Obs = Nw_obs.Obs

type state = { color : int; parent_color : int; child_colors : int list }

let bits_needed x =
  let rec loop b v = if v = 0 then b else loop (b + 1) (v lsr 1) in
  max 1 (loop 0 x)

(* One step of deterministic bit reduction: the new color encodes the lowest
   bit position where [color] and [pcolor] differ, together with own bit. *)
let reduce_color color pcolor =
  let diff = color lxor pcolor in
  assert (diff <> 0);
  let rec lowest i d = if d land 1 = 1 then i else lowest (i + 1) (d lsr 1) in
  let i = lowest 0 diff in
  (2 * i) + ((color lsr i) land 1)

let three_color g ~parent_edge ~ids ~rounds =
  let n = G.n g in
  if Array.length parent_edge <> n || Array.length ids <> n then
    invalid_arg "Cole_vishkin.three_color: array size mismatch";
  Array.iteri
    (fun v e ->
      if e >= 0 then ignore (G.other_endpoint g e v : int))
    parent_edge;
  Obs.span "cole_vishkin.three_color" @@ fun () ->
  let net =
    Net.create g ~rounds ~init:(fun v ->
        { color = ids.(v); parent_color = -1; child_colors = [] })
  in
  (* every round: each vertex broadcasts its color on every incident
     edge; receivers split messages into the parent one and child ones.
     The all-broadcast shape is exactly [round_exchange]: the kernel
     gathers each inbox by streaming the receiver's adjacency, no
     per-message allocation. The recv is order-insensitive (one parent
     pick, set-membership over children), as the primitive requires. *)
  let value _ st = st.color in
  let recv v st iter =
    let pcolor = ref (-1) and children = ref [] in
    iter (fun e c ->
        if e = parent_edge.(v) then pcolor := c else children := c :: !children);
    { st with parent_color = !pcolor; child_colors = !children }
  in
  let exchange label = Net.round_exchange net ~label ~value ~recv in
  let update f =
    for v = 0 to n - 1 do
      let st = Net.state net v in
      Net.set_state net v { st with color = f v st }
    done
  in
  (* Phase 1: bit reduction to 6 colors. The root has no parent color and
     pretends its parent's color is its own with the lowest bit flipped. *)
  let max_id = Array.fold_left max 0 ids in
  let iterations =
    (* bits shrink as L -> ceil(log2 L) + 1; iterate to the fixed point 3,
       plus one extra application for safety. *)
    let rec count l acc =
      if l <= 3 then acc
      else count (bits_needed (l - 1) + 1) (acc + 1)
    in
    count (bits_needed max_id) 0 + 1
  in
  for _ = 1 to iterations do
    exchange "cole-vishkin/bit-reduction";
    update (fun v st ->
        let pcolor =
          if parent_edge.(v) >= 0 then st.parent_color else st.color lxor 1
        in
        reduce_color st.color pcolor)
  done;
  (* Phase 2: colors are now in {0..5}; eliminate 5, 4, 3 by shift-down and
     recolor. After a shift-down all children of any vertex share one color,
     so a recoloring vertex is constrained by at most two colors. *)
  for c = 5 downto 3 do
    (* shift-down; the root picks a low color different from its own so
       that no already-eliminated class reappears *)
    exchange "cole-vishkin/shift-down";
    update (fun v st ->
        if parent_edge.(v) >= 0 then st.parent_color
        else if st.color = 0 then 1
        else 0);
    (* recolor class c *)
    exchange "cole-vishkin/recolor";
    update (fun v st ->
        if st.color <> c then st.color
        else begin
          let forbidden =
            (if parent_edge.(v) >= 0 then [ st.parent_color ] else [])
            @ st.child_colors
          in
          let rec pick x = if List.mem x forbidden then pick (x + 1) else x in
          pick 0
        end)
  done;
  Array.map (fun st -> st.color) (Net.states net)

(* ------------------------------------------------------------------ *)
(* concurrent multi-forest variant                                     *)
(* ------------------------------------------------------------------ *)

(* The [t] concurrent runs keep their per-(vertex, forest) state in flat
   planes indexed [v * t + j] rather than per-vertex records: the update
   sweeps become sequential scans and every message costs one indirection
   instead of two dependent ones — at 10^7 edges the layout is the
   difference between cache misses dominating and not. The net's own
   per-vertex state is just the vertex id; a fault-injected restart
   resets the vertex's color slice through [init], which is exactly the
   state loss [three_color] suffers. The phase-2 child colors are a
   bitmask, not a list: the recolor pick never inspects colors anywhere
   near the word size, and a forbidden color the pick loop cannot reach
   never changes its result. *)
let three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds =
  let n = G.n g and m = G.m g in
  if t <= 0 then invalid_arg "Cole_vishkin.three_color_forests: t <= 0";
  if
    Array.length edge_forest <> m
    || Array.length parent_edge <> n * t
    || Array.length ids <> n
  then invalid_arg "Cole_vishkin.three_color_forests: array size mismatch";
  Obs.span "cole_vishkin.three_color_forests" @@ fun () ->
  (* In LOCAL the [t] forests are colored concurrently on the same
     network: one net over the whole graph, a vertex's message on edge
     [e] is its color in [e]'s forest, and each round advances every
     forest at once. Per-forest outputs, inboxes, and the charged
     ledger are identical to [t] separate [three_color] runs (the
     per-forest computations never interact); the simulation just stops
     paying [t] full-vertex sweeps and subgraph builds per round. *)
  let colors = Array.make (n * t) 0 in
  let pcolors = Array.make (n * t) (-1) in
  let cmask = Array.make (n * t) 0 in
  (* Generation stamps instead of per-receive slot resets: exchange [r]
     writes slot [i] together with [pstamp.(i) <- r] ([cstamp] for the
     child masks), and a receiving vertex records [r] in [pseen] ([cseen]
     in the recolor exchange). A slot counts only when its stamp matches
     its vertex's last receive, so it reads as reset otherwise. A vertex
     that did not receive (crashed under a fault plan) keeps its last
     view, exactly as when the slots were cleared inside recv. *)
  let pstamp = Array.make (n * t) 0 and cstamp = Array.make (n * t) 0 in
  let pseen = Array.make n 0 and cseen = Array.make n 0 in
  let gen = ref 0 in
  let pcolor v i = if pstamp.(i) = pseen.(v) then pcolors.(i) else -1 in
  let children v i = if cstamp.(i) = cseen.(v) then cmask.(i) else 0 in
  let net =
    Net.create g ~rounds ~init:(fun v ->
        (* the vertex's initial state, not scratch: at creation and on a
           fault-injected restart its whole color slice reverts to its id *)
        for j = 0 to t - 1 do
          colors.((v * t) + j) <- ids.(v)
        done;
        v)
  in
  let value u _ e = colors.((u * t) + edge_forest.(e)) in
  let recv_parents v _ iter =
    pseen.(v) <- !gen;
    iter (fun e c ->
        let i = (v * t) + edge_forest.(e) in
        if e = parent_edge.(i) then begin
          pcolors.(i) <- c;
          pstamp.(i) <- !gen
        end);
    v
  in
  let recv_full v _ iter =
    pseen.(v) <- !gen;
    cseen.(v) <- !gen;
    iter (fun e c ->
        let i = (v * t) + edge_forest.(e) in
        if e = parent_edge.(i) then begin
          pcolors.(i) <- c;
          pstamp.(i) <- !gen
        end
        else if c >= 0 && c < 62 then begin
          cmask.(i) <- children v i lor (1 lsl c);
          cstamp.(i) <- !gen
        end);
    v
  in
  let exchange label recv =
    incr gen;
    Net.round_exchange_edges net ~label ~value ~recv
  in
  let max_id = Array.fold_left max 0 ids in
  let iterations =
    let rec count l acc =
      if l <= 3 then acc
      else count (bits_needed (l - 1) + 1) (acc + 1)
    in
    count (bits_needed max_id) 0 + 1
  in
  for _ = 1 to iterations do
    exchange "cole-vishkin/bit-reduction" recv_parents;
    for v = 0 to n - 1 do
      for i = v * t to (v * t) + t - 1 do
        let color = colors.(i) in
        let pc = if parent_edge.(i) >= 0 then pcolor v i else color lxor 1 in
        colors.(i) <- reduce_color color pc
      done
    done
  done;
  for c = 5 downto 3 do
    exchange "cole-vishkin/shift-down" recv_parents;
    for v = 0 to n - 1 do
      for i = v * t to (v * t) + t - 1 do
        colors.(i) <-
          (if parent_edge.(i) >= 0 then pcolor v i
           else if colors.(i) = 0 then 1
           else 0)
      done
    done;
    exchange "cole-vishkin/recolor" recv_full;
    for v = 0 to n - 1 do
      for i = v * t to (v * t) + t - 1 do
        if colors.(i) = c then begin
          let pc = pcolor v i and cm = children v i in
          let forbid x =
            (parent_edge.(i) >= 0 && pc = x)
            || (x < 62 && cm land (1 lsl x) <> 0)
          in
          let rec pick x = if forbid x then pick (x + 1) else x in
          colors.(i) <- pick 0
        end
      done
    done
  done;
  colors
