module G = Multigraph

let components g =
  let n = G.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.take q in
        Array.iter
          (fun (w, _) ->
            if label.(w) < 0 then begin
              label.(w) <- c;
              Queue.add w q
            end)
          (G.incident g u)
      done
    end
  done;
  (label, !next)

let is_forest g =
  let uf = Union_find.create (G.n g) in
  G.fold_edges (fun _ u v acc -> acc && Union_find.union uf u v) g true

let distances g v =
  let dist = Array.make (G.n g) (-1) in
  let q = Queue.create () in
  dist.(v) <- 0;
  Queue.add v q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    Array.iter
      (fun (w, _) ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(u) + 1;
          Queue.add w q
        end)
      (G.incident g u)
  done;
  dist

let diameter g =
  let best = ref 0 in
  for v = 0 to G.n g - 1 do
    let dist = distances g v in
    Array.iter (fun d -> if d > !best then best := d) dist
  done;
  !best

(* Two BFS sweeps per tree over one stamped scratch: every sweep takes a
   fresh stamp instead of a fresh n-sized array, and a class starts at
   [base] so any vertex stamped at or after it already lies in a swept
   tree. Each class costs O(n + its edges). A BFS over a forest only
   ever meets unmarked vertices off its parent edge, so meeting a marked
   one is a cycle. *)
let forest_diameter n ~classes iter =
  let mark = Array.make n 0
  and dist = Array.make n 0
  and via = Array.make n (-1)
  and queue = Array.make n 0 in
  let stamp = ref 0 in
  (* BFS from [s] in class [c]; returns the farthest vertex found *)
  let sweep c s =
    incr stamp;
    let st = !stamp in
    mark.(s) <- st;
    dist.(s) <- 0;
    via.(s) <- -1;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 and far = ref s in
    while !head < !tail do
      let x = queue.(!head) in
      incr head;
      if dist.(x) > dist.(!far) then far := x;
      iter c x (fun w e ->
          if e <> via.(x) then begin
            if mark.(w) = st then
              invalid_arg "Traversal.forest_diameter: not a forest";
            mark.(w) <- st;
            dist.(w) <- dist.(x) + 1;
            via.(w) <- e;
            queue.(!tail) <- w;
            incr tail
          end)
    done;
    !far
  in
  let best = ref 0 in
  for c = 0 to classes - 1 do
    let base = !stamp + 1 in
    for v = 0 to n - 1 do
      if mark.(v) < base then begin
        let far = sweep c (sweep c v) in
        if dist.(far) > !best then best := dist.(far)
      end
    done
  done;
  !best

let tree_diameter g =
  forest_diameter (G.n g) ~classes:1 (fun _ v f -> G.iter_incident g v f)

let spanning_forest g =
  let uf = Union_find.create (G.n g) in
  let keep = Array.make (G.m g) false in
  G.fold_edges
    (fun e u v () -> if Union_find.union uf u v then keep.(e) <- true)
    g ();
  keep

let bfs_tree g root =
  let n = G.n g in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let q = Queue.create () in
  depth.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    Array.iter
      (fun (w, e) ->
        if depth.(w) < 0 then begin
          depth.(w) <- depth.(u) + 1;
          parent.(w) <- u;
          parent_edge.(w) <- e;
          Queue.add w q
        end)
      (G.incident g u)
  done;
  (parent, parent_edge, depth)
