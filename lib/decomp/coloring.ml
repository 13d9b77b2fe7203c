(* nwlint:disable PERF001 -- the per-color union-find rebuild is already lazily gated by generation counters (uf_gen/uf_built); when it does run it is Theta(n + m_c) by design, so the fills are not the cost *)

module Obs = Nw_obs.Obs

(* Process-wide instrumentation of the connectivity layer. Atomic so that
   parallel bench domains can share them; the bench harness snapshots
   before/after each experiment and reports deltas in BENCH_*.json. Both
   functor instances below count into the same cells — the counters
   describe the algorithm, not the data plane. *)
module Counters = struct
  let uf_queries = Atomic.make 0
  let bfs_runs = Atomic.make 0
  let uf_rebuilds = Atomic.make 0

  type snapshot = { uf_queries : int; bfs_runs : int; uf_rebuilds : int }

  let snapshot () =
    {
      uf_queries = Atomic.get uf_queries;
      bfs_runs = Atomic.get bfs_runs;
      uf_rebuilds = Atomic.get uf_rebuilds;
    }
end

(* The cache itself is plane-generic: every structure below is keyed by
   vertex ids, edge ids and node ids [2e + slot], and the only graph
   operations it needs are [n]/[m]/[src]/[dst] (plus [subgraph_of_edges]
   for per-color extraction). [Make] builds it over any GRAPH_EXT; the
   public [t] at the bottom of this file dispatches once per coloring
   between the two instances, exactly like [Msg_net]. *)

module type S = sig
  type graph
  type t

  val create : graph -> colors:int -> t
  val graph : t -> graph
  val colors : t -> int
  val color : t -> int -> int option
  val colored_count : t -> int
  val uncolored : t -> int array
  val iter_uncolored : (int -> unit) -> t -> unit
  val would_close_cycle : t -> int -> int -> bool
  val oracle_would_close_cycle : t -> int -> int -> bool
  val set : t -> int -> int -> unit
  val unset : t -> int -> unit
  val path : t -> int -> int -> int list option
  val component_edges : t -> int -> int -> int list
  val component_size : t -> int -> int -> int
  val component_edge_count : t -> int -> int -> int
  val colored_incident : t -> int -> int -> (int * int) list
  val iter_colored_incident : t -> int -> int -> (int -> int -> unit) -> unit
  val to_array : t -> int option array
  val of_array : graph -> colors:int -> int option array -> t
  val copy : t -> t
  val extend : t -> graph -> t
  val connected : t -> int -> int -> int -> bool
  val subgraph : t -> int -> graph * int array
end

module Make (G : Nw_graphs.Graph_sig.GRAPH_EXT) :
  S with type graph = G.t = struct
  type graph = G.t

  (* Adjacency is a doubly-linked list per (color, vertex), threaded
     through two flat arrays indexed by "node id" [2e + slot] (slot 0 =
     the src endpoint of e, slot 1 = dst). An edge belongs to at most one
     color, so one nxt/prv pair per node suffices globally. Inserts
     prepend and unlinks are in place, which reproduces exactly the
     iteration order of the previous [(nbr, edge) list] representation
     (prepend + order-preserving filter) while making deletion O(1)
     instead of O(deg).

     Each color additionally threads its edges through [enxt]/[eprv]
     (head [ehead.(c)]) so the lazy union-find rebuild below touches only
     that color's edges, never all m. *)

  type t = {
    g : G.t;
    colors : int;
    assign : int array; (* edge -> color or -1 *)
    mutable colored : int;
    (* (color, vertex) adjacency DLLs over node ids 2e+slot; -1 = nil *)
    head : int array array; (* color -> vertex -> node id *)
    nxt : int array; (* 2m *)
    prv : int array; (* 2m *)
    (* per-color edge DLLs; -1 = nil *)
    ehead : int array;
    enxt : int array; (* m *)
    eprv : int array; (* m *)
    ecount : int array; (* edges currently in each color *)
    (* incremental per-color connectivity: union-find with path
       compression and union by size, carrying per-component vertex and
       edge counts. Lazily allocated ([||]) and lazily rebuilt: [uf_gen]
       is bumped on any deletion from the color, [uf_built] records the
       generation of the last rebuild; the class is clean iff they
       agree. *)
    uf_parent : int array array; (* color -> n *)
    uf_size : int array array; (* root -> component vertex count *)
    uf_edges : int array array; (* root -> component edge count *)
    uf_gen : int array;
    uf_built : int array;
    (* rooted spanning forest per color, maintained together with the
       union-find (same laziness): parent vertex / parent edge / depth,
       so path extraction is an O(path) LCA climb instead of a BFS over
       the component. Insertions re-root the smaller side
       (small-to-large); deletions fall back on the lazy rebuild. *)
    fp_vertex : int array array; (* color -> vertex -> parent, -1 root *)
    fp_edge : int array array; (* color -> vertex -> edge to parent *)
    fp_depth : int array array; (* color -> vertex -> depth from root *)
    (* timestamped BFS scratch, shared across queries *)
    mark : int array;
    via : int array; (* vertex -> edge used to reach it in current BFS *)
    pred : int array; (* vertex -> predecessor in current BFS *)
    qbuf : int array; (* BFS queue buffer for rebuild / reroot *)
    mutable stamp : int;
  }

  let create g ~colors =
    if colors < 0 then invalid_arg "Coloring.create: negative color count";
    let n = G.n g in
    let m = G.m g in
    {
      g;
      colors;
      assign = Array.make m (-1);
      colored = 0;
      head = Array.init colors (fun _ -> Array.make n (-1));
      nxt = Array.make (2 * m) (-1);
      prv = Array.make (2 * m) (-1);
      ehead = Array.make colors (-1);
      enxt = Array.make m (-1);
      eprv = Array.make m (-1);
      ecount = Array.make colors 0;
      uf_parent = Array.make colors [||];
      uf_size = Array.make colors [||];
      uf_edges = Array.make colors [||];
      uf_gen = Array.make colors 0;
      uf_built = Array.make colors (-1);
      fp_vertex = Array.make colors [||];
      fp_edge = Array.make colors [||];
      fp_depth = Array.make colors [||];
      mark = Array.make n 0;
      via = Array.make n (-1);
      pred = Array.make n (-1);
      qbuf = Array.make n 0;
      stamp = 0;
    }

  let graph t = t.g
  let colors t = t.colors

  let color t e =
    let c = t.assign.(e) in
    if c < 0 then None else Some c

  let colored_count t = t.colored

  let uncolored t =
    let k = Array.length t.assign - t.colored in
    let out = Array.make k 0 in
    let j = ref 0 in
    for e = 0 to Array.length t.assign - 1 do
      if t.assign.(e) < 0 then begin
        out.(!j) <- e;
        incr j
      end
    done;
    out

  let iter_uncolored f t =
    for e = 0 to Array.length t.assign - 1 do
      if t.assign.(e) < 0 then f e
    done

  (* ---------------------------------------------------------------- *)
  (* adjacency DLL primitives                                          *)
  (* ---------------------------------------------------------------- *)

  (* neighbor reached through node [nd] of vertex [x]'s list: the
     endpoint of edge [nd/2] on the other slot. src/dst instead of
     [endpoints]: this is the innermost load of every cache traversal
     and must not allocate a tuple per step. *)
  let node_neighbor t nd =
    let e = nd lsr 1 in
    if nd land 1 = 0 then G.dst t.g e else G.src t.g e

  let iter_adj t c x f =
    let nd = ref t.head.(c).(x) in
    while !nd >= 0 do
      let cur = !nd in
      nd := t.nxt.(cur);
      f (node_neighbor t cur) (cur lsr 1)
    done

  let link_node t c x nd =
    let h = t.head.(c).(x) in
    t.nxt.(nd) <- h;
    t.prv.(nd) <- -1;
    if h >= 0 then t.prv.(h) <- nd;
    t.head.(c).(x) <- nd

  let unlink_node t c x nd =
    let p = t.prv.(nd) and n = t.nxt.(nd) in
    if p >= 0 then t.nxt.(p) <- n else t.head.(c).(x) <- n;
    if n >= 0 then t.prv.(n) <- p;
    t.nxt.(nd) <- -1;
    t.prv.(nd) <- -1

  let link_edge t c e =
    let h = t.ehead.(c) in
    t.enxt.(e) <- h;
    t.eprv.(e) <- -1;
    if h >= 0 then t.eprv.(h) <- e;
    t.ehead.(c) <- e;
    t.ecount.(c) <- t.ecount.(c) + 1

  let unlink_edge t c e =
    let p = t.eprv.(e) and n = t.enxt.(e) in
    if p >= 0 then t.enxt.(p) <- n else t.ehead.(c) <- n;
    if n >= 0 then t.eprv.(n) <- p;
    t.enxt.(e) <- -1;
    t.eprv.(e) <- -1;
    t.ecount.(c) <- t.ecount.(c) - 1

  (* ---------------------------------------------------------------- *)
  (* per-color union-find                                              *)
  (* ---------------------------------------------------------------- *)

  let rec uf_find p x =
    let px = p.(x) in
    if px = x then x
    else begin
      let root = uf_find p px in
      p.(x) <- root;
      root
    end

  (* union endpoints of one more edge; caller guarantees acyclicity
     except during rebuild, where a same-root union would indicate a
     broken forest invariant and is counted on the root anyway *)
  let uf_union t c u v =
    let p = t.uf_parent.(c) in
    let ru = uf_find p u and rv = uf_find p v in
    let sz = t.uf_size.(c) and ed = t.uf_edges.(c) in
    if ru = rv then ed.(ru) <- ed.(ru) + 1
    else begin
      let big, small = if sz.(ru) >= sz.(rv) then (ru, rv) else (rv, ru) in
      p.(small) <- big;
      sz.(big) <- sz.(big) + sz.(small);
      ed.(big) <- ed.(big) + ed.(small) + 1
    end

  let uf_rebuild t c =
    let n = G.n t.g in
    if Array.length t.uf_parent.(c) = 0 then begin
      t.uf_parent.(c) <- Array.init n (fun i -> i);
      t.uf_size.(c) <- Array.make n 1;
      t.uf_edges.(c) <- Array.make n 0;
      t.fp_vertex.(c) <- Array.make n (-1);
      t.fp_edge.(c) <- Array.make n (-1);
      t.fp_depth.(c) <- Array.make n (-1)
    end
    else begin
      let p = t.uf_parent.(c) in
      for i = 0 to n - 1 do
        p.(i) <- i
      done;
      Array.fill t.uf_size.(c) 0 n 1;
      Array.fill t.uf_edges.(c) 0 n 0;
      Array.fill t.fp_vertex.(c) 0 n (-1);
      Array.fill t.fp_edge.(c) 0 n (-1);
      Array.fill t.fp_depth.(c) 0 n (-1)
    end;
    let e = ref t.ehead.(c) in
    while !e >= 0 do
      uf_union t c (G.src t.g !e) (G.dst t.g !e);
      e := t.enxt.(!e)
    done;
    (* rebuild the rooted spanning forest: BFS each component, parents
       pointing toward the component's lowest-id unvisited vertex *)
    let pv = t.fp_vertex.(c)
    and pe = t.fp_edge.(c)
    and dep = t.fp_depth.(c) in
    for r = 0 to n - 1 do
      if dep.(r) < 0 then begin
        dep.(r) <- 0;
        t.qbuf.(0) <- r;
        let tail = ref 1 in
        let h = ref 0 in
        while !h < !tail do
          let x = t.qbuf.(!h) in
          incr h;
          iter_adj t c x (fun w e ->
              if dep.(w) < 0 then begin
                dep.(w) <- dep.(x) + 1;
                pv.(w) <- x;
                pe.(w) <- e;
                t.qbuf.(!tail) <- w;
                incr tail
              end)
        done
      end
    done;
    t.uf_built.(c) <- t.uf_gen.(c);
    Atomic.incr Counters.uf_rebuilds;
    Obs.count "coloring.uf_rebuilds"

  let ensure_uf t c = if t.uf_built.(c) <> t.uf_gen.(c) then uf_rebuild t c

  (* Re-hang vertex [v]'s tree in color [c] below [u] through edge [e]:
     v becomes the subtree root attached to u, and every vertex of v's
     old tree is re-parented toward v by a BFS over the color's adjacency
     (e is not linked yet, so the BFS cannot escape into u's tree). The
     caller always re-roots the smaller side, so each vertex is re-rooted
     at most O(log n) times across a build (small-to-large). *)
  let reroot_under t c ~u ~v ~e =
    let pv = t.fp_vertex.(c)
    and pe = t.fp_edge.(c)
    and dep = t.fp_depth.(c) in
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    t.mark.(v) <- stamp;
    dep.(v) <- dep.(u) + 1;
    pv.(v) <- u;
    pe.(v) <- e;
    t.qbuf.(0) <- v;
    let tail = ref 1 in
    let h = ref 0 in
    while !h < !tail do
      let x = t.qbuf.(!h) in
      incr h;
      iter_adj t c x (fun w e' ->
          if t.mark.(w) <> stamp then begin
            t.mark.(w) <- stamp;
            dep.(w) <- dep.(x) + 1;
            pv.(w) <- x;
            pe.(w) <- e';
            t.qbuf.(!tail) <- w;
            incr tail
          end)
    done

  (* connectivity of u and v inside color c, O(alpha(n)) amortized *)
  let uf_connected t c u v =
    ensure_uf t c;
    Atomic.incr Counters.uf_queries;
    Obs.count "coloring.uf_queries";
    let p = t.uf_parent.(c) in
    uf_find p u = uf_find p v

  (* ---------------------------------------------------------------- *)
  (* BFS path extraction (for extraction and as a test oracle)         *)
  (* ---------------------------------------------------------------- *)

  (* Bidirectional BFS inside color class [c] between [src] and [dst],
     never crossing edge [skip]. Expands the smaller frontier and stops
     as soon as either side's component is exhausted, so deciding
     "disconnected" costs only the smaller component — the common case
     during augmentation, where one endpoint is isolated in most colors.

     Returns [None] when disconnected; [Some (x, w, e)] when the two
     searches met via edge [e] between [x] (src side) and [w] (dst
     side). The [via]/[pred] scratch then encodes both half-paths. *)
  let bfs_color t c src dst skip =
    Atomic.incr Counters.bfs_runs;
    Obs.count "coloring.bfs_runs";
    (* two stamps: src side = stamp, dst side = stamp + 1 *)
    t.stamp <- t.stamp + 2;
    let s_src = t.stamp - 1 and s_dst = t.stamp in
    t.mark.(src) <- s_src;
    t.via.(src) <- -1;
    t.pred.(src) <- -1;
    t.mark.(dst) <- s_dst;
    t.via.(dst) <- -1;
    t.pred.(dst) <- -1;
    let frontier_src = ref [ src ] and frontier_dst = ref [ dst ] in
    let meeting = ref None in
    (* expand one side's whole frontier; my/other are the side stamps; a
       meeting is always recorded as (src-side, dst-side, e) *)
    let expand frontier my other ~from_src =
      let next = ref [] in
      List.iter
        (fun x ->
          if !meeting = None then
            iter_adj t c x (fun w e ->
                if !meeting = None && e <> skip then
                  if t.mark.(w) = other then
                    meeting :=
                      Some (if from_src then (x, w, e) else (w, x, e))
                  else if t.mark.(w) <> my then begin
                    t.mark.(w) <- my;
                    t.via.(w) <- e;
                    t.pred.(w) <- x;
                    next := w :: !next
                  end))
        !frontier;
      frontier := !next
    in
    let rec loop () =
      if !meeting <> None then !meeting
      else if !frontier_src = [] || !frontier_dst = [] then None
      else begin
        if List.compare_lengths !frontier_src !frontier_dst <= 0 then
          expand frontier_src s_src s_dst ~from_src:true
        else expand frontier_dst s_dst s_src ~from_src:false;
        loop ()
      end
    in
    loop ()

  let would_close_cycle t e c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.would_close_cycle: color out of range";
    if t.assign.(e) = c then
      (* color classes are forests: u and v are joined only through e *)
      false
    else begin
      let u = G.src t.g e and v = G.dst t.g e in
      u = v || uf_connected t c u v
    end

  let oracle_would_close_cycle t e c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.oracle_would_close_cycle: color out of range";
    bfs_color t c (G.src t.g e) (G.dst t.g e) e <> None

  let connected t c u v =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.connected: color out of range";
    let n = G.n t.g in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Coloring.connected: vertex out of range";
    u = v || uf_connected t c u v

  let unset t e =
    let c = t.assign.(e) in
    if c >= 0 then begin
      let u = G.src t.g e and v = G.dst t.g e in
      unlink_node t c u (2 * e);
      unlink_node t c v ((2 * e) + 1);
      unlink_edge t c e;
      t.assign.(e) <- -1;
      t.colored <- t.colored - 1;
      (* deletions invalidate only this color; rebuilt lazily on query *)
      t.uf_gen.(c) <- t.uf_gen.(c) + 1
    end

  let set t e c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.set: color out of range";
    if t.assign.(e) <> c then begin
      if would_close_cycle t e c then
        invalid_arg "Coloring.set: would close a cycle";
      unset t e;
      let u = G.src t.g e and v = G.dst t.g e in
      (* the cycle check above just ensured color c's union-find is clean
         (and allocated), so insertion maintains it incrementally — no
         invalidation. The rooted forest re-hangs the smaller side before
         the edge enters the adjacency lists. *)
      let p = t.uf_parent.(c) in
      if t.uf_size.(c).(uf_find p u) >= t.uf_size.(c).(uf_find p v) then
        reroot_under t c ~u ~v ~e
      else reroot_under t c ~u:v ~v:u ~e;
      link_node t c u (2 * e);
      link_node t c v ((2 * e) + 1);
      link_edge t c e;
      t.assign.(e) <- c;
      t.colored <- t.colored + 1;
      uf_union t c u v
    end

  let path t e c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.path: color out of range";
    if t.assign.(e) = c then Some [ e ]
    else begin
      let u = G.src t.g e and v = G.dst t.g e in
      if u = v then begin
        (* self-loop: no tree path; legacy BFS answer for compatibility *)
        match bfs_color t c u v e with
        | None -> None
        | Some (x, w, mid) ->
            let rec walk stop_at y acc =
              if y = stop_at then acc
              else walk stop_at t.pred.(y) (t.via.(y) :: acc)
            in
            Some (walk u x [] @ (mid :: walk v w []))
      end
      else if not (uf_connected t c u v) then
        (* O(alpha) disconnection test: the common case in augmentation *)
        None
      else begin
        (* extract the unique tree path by climbing the rooted forest to
           the LCA: O(path length), no component traversal. Emitted as
           the u-side half in u->lca order followed by the v-side half in
           v->lca order, mirroring the bidirectional-BFS half-path format
           this replaces. *)
        let pv = t.fp_vertex.(c)
        and pe = t.fp_edge.(c)
        and dep = t.fp_depth.(c) in
        let uside = ref [] and vside = ref [] in
        let x = ref u and y = ref v in
        while dep.(!x) > dep.(!y) do
          uside := pe.(!x) :: !uside;
          x := pv.(!x)
        done;
        while dep.(!y) > dep.(!x) do
          vside := pe.(!y) :: !vside;
          y := pv.(!y)
        done;
        while !x <> !y do
          uside := pe.(!x) :: !uside;
          x := pv.(!x);
          vside := pe.(!y) :: !vside;
          y := pv.(!y)
        done;
        Some (List.rev_append !uside (List.rev !vside))
      end
    end

  let component_edges t v c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.component_edges: color out of range";
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    let q = Queue.create () in
    t.mark.(v) <- stamp;
    Queue.add v q;
    let acc = ref [] in
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      iter_adj t c u (fun w e ->
          if t.mark.(w) <> stamp then begin
            t.mark.(w) <- stamp;
            acc := e :: !acc;
            Queue.add w q
          end)
    done;
    !acc

  let component_size t v c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.component_size: color out of range";
    ensure_uf t c;
    t.uf_size.(c).(uf_find t.uf_parent.(c) v)

  let component_edge_count t v c =
    if c < 0 || c >= t.colors then
      invalid_arg "Coloring.component_edge_count: color out of range";
    ensure_uf t c;
    t.uf_edges.(c).(uf_find t.uf_parent.(c) v)

  let colored_incident t v c =
    let acc = ref [] in
    iter_adj t c v (fun w e -> acc := (w, e) :: !acc);
    List.rev !acc

  let iter_colored_incident t v c f = iter_adj t c v f

  let to_array t =
    Array.map (fun c -> if c < 0 then None else Some c) t.assign

  (* Bulk construction. Linking in ascending edge order leaves every
     (color, vertex) list and every per-color edge list exactly as the
     per-edge [set] loop would (prepend, latest first). Acyclicity is
     checked class by class with one shared union-find, reset over the
     endpoints each class touched; the per-color union-find and rooted
     forests are left unbuilt ([uf_built] < [uf_gen]) for [uf_rebuild]
     to build on a class's first query. *)
  let of_array g ~colors a =
    if Array.length a <> G.m g then
      invalid_arg "Coloring.of_array: length mismatch";
    let t = create g ~colors in
    Array.iteri
      (fun e c ->
        match c with
        | None -> ()
        | Some c ->
            if c < 0 || c >= colors then
              invalid_arg "Coloring.of_array: color out of range";
            link_node t c (G.src g e) (2 * e);
            link_node t c (G.dst g e) ((2 * e) + 1);
            link_edge t c e;
            t.assign.(e) <- c;
            t.colored <- t.colored + 1)
      a;
    (* path halving (a tail call, so no recursion depth) keeps every
       find amortized O(log n) without a rank array *)
    let parent = Array.init (G.n g) Fun.id in
    let rec find x =
      let p = parent.(x) in
      if p = x then x
      else begin
        parent.(x) <- parent.(p);
        find parent.(x)
      end
    in
    for c = 0 to colors - 1 do
      let e = ref t.ehead.(c) in
      while !e >= 0 do
        let ru = find (G.src g !e) and rv = find (G.dst g !e) in
        if ru = rv then invalid_arg "Coloring.of_array: class is not a forest";
        parent.(ru) <- rv;
        e := t.enxt.(!e)
      done;
      (* only this class's endpoints were linked or halved *)
      let e = ref t.ehead.(c) in
      while !e >= 0 do
        parent.(G.src g !e) <- G.src g !e;
        parent.(G.dst g !e) <- G.dst g !e;
        e := t.enxt.(!e)
      done
    done;
    t

  let copy t = of_array t.g ~colors:t.colors (to_array t)

  (* Transplant a live coloring onto a supergraph without disturbing the
     per-color caches: every per-edge array is blitted into a larger one
     (new ids start unlinked/uncolored), every per-color per-vertex array
     is copied as-is, and only the BFS scratch is reset (mark semantics
     are "equal to the current stamp", so zeroed marks with stamp 0 are
     clean — the stamp is bumped before first use). Nothing here
     re-unions or runs a BFS, so union-find state, generation counters
     and rooted forests all survive; the cost is the copies,
     O(m' + colors * n). *)
  let extend t g' =
    let n = G.n t.g and m = G.m t.g in
    let m' = G.m g' in
    if G.n g' <> n then invalid_arg "Coloring.extend: vertex set changed";
    if m' < m then invalid_arg "Coloring.extend: edge set shrank";
    for e = 0 to m - 1 do
      if G.src t.g e <> G.src g' e || G.dst t.g e <> G.dst g' e then
        invalid_arg "Coloring.extend: existing edge ids not preserved"
    done;
    let grow a len pad =
      let b = Array.make len pad in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    {
      g = g';
      colors = t.colors;
      assign = grow t.assign m' (-1);
      colored = t.colored;
      head = Array.map Array.copy t.head;
      nxt = grow t.nxt (2 * m') (-1);
      prv = grow t.prv (2 * m') (-1);
      ehead = Array.copy t.ehead;
      enxt = grow t.enxt m' (-1);
      eprv = grow t.eprv m' (-1);
      ecount = Array.copy t.ecount;
      uf_parent = Array.map Array.copy t.uf_parent;
      uf_size = Array.map Array.copy t.uf_size;
      uf_edges = Array.map Array.copy t.uf_edges;
      uf_gen = Array.copy t.uf_gen;
      uf_built = Array.copy t.uf_built;
      fp_vertex = Array.map Array.copy t.fp_vertex;
      fp_edge = Array.map Array.copy t.fp_edge;
      fp_depth = Array.map Array.copy t.fp_depth;
      mark = Array.make n 0;
      via = Array.make n (-1);
      pred = Array.make n (-1);
      qbuf = Array.make n 0;
      stamp = 0;
    }

  let subgraph t c =
    let keep = Array.map (fun c' -> c' = c) t.assign in
    G.subgraph_of_edges t.g keep
end

(* ------------------------------------------------------------------ *)
(* backend dispatch                                                    *)
(* ------------------------------------------------------------------ *)

module MG = Nw_graphs.Multigraph
module Boxed = Make (Nw_graphs.Multigraph)
module Csr_backed = Make (Nw_graphs.Csr)

(* The public coloring is the PR 6 dispatch shape: pick the plane ONCE
   when the coloring is created (from [Backend.default ()]), and keep the
   boxed source graph alongside the CSR instance so artifacts,
   checkpoints and derived Multigraphs stay backend-agnostic. Both
   instances run the identical op sequence over identical iteration
   orders, so every observable — colors, paths, counters — is
   byte-identical across the two arms. *)
type t = Boxed of Boxed.t | Csr of MG.t * Csr_backed.t

let create g ~colors =
  match Nw_graphs.Backend.default () with
  | Nw_graphs.Backend.Boxed -> Boxed (Boxed.create g ~colors)
  | Nw_graphs.Backend.Csr ->
      Csr (g, Csr_backed.create (Nw_graphs.Csr.of_multigraph g) ~colors)

let graph = function Boxed b -> Boxed.graph b | Csr (g, _) -> g
let colors = function Boxed b -> Boxed.colors b | Csr (_, k) -> Csr_backed.colors k

let color t e =
  match t with Boxed b -> Boxed.color b e | Csr (_, k) -> Csr_backed.color k e

let colored_count = function
  | Boxed b -> Boxed.colored_count b
  | Csr (_, k) -> Csr_backed.colored_count k

let uncolored = function
  | Boxed b -> Boxed.uncolored b
  | Csr (_, k) -> Csr_backed.uncolored k

let iter_uncolored f = function
  | Boxed b -> Boxed.iter_uncolored f b
  | Csr (_, k) -> Csr_backed.iter_uncolored f k

let would_close_cycle t e c =
  match t with
  | Boxed b -> Boxed.would_close_cycle b e c
  | Csr (_, k) -> Csr_backed.would_close_cycle k e c

let oracle_would_close_cycle t e c =
  match t with
  | Boxed b -> Boxed.oracle_would_close_cycle b e c
  | Csr (_, k) -> Csr_backed.oracle_would_close_cycle k e c

let set t e c =
  match t with
  | Boxed b -> Boxed.set b e c
  | Csr (_, k) -> Csr_backed.set k e c

let unset t e =
  match t with Boxed b -> Boxed.unset b e | Csr (_, k) -> Csr_backed.unset k e

let path t e c =
  match t with
  | Boxed b -> Boxed.path b e c
  | Csr (_, k) -> Csr_backed.path k e c

let component_edges t v c =
  match t with
  | Boxed b -> Boxed.component_edges b v c
  | Csr (_, k) -> Csr_backed.component_edges k v c

let component_size t v c =
  match t with
  | Boxed b -> Boxed.component_size b v c
  | Csr (_, k) -> Csr_backed.component_size k v c

let component_edge_count t v c =
  match t with
  | Boxed b -> Boxed.component_edge_count b v c
  | Csr (_, k) -> Csr_backed.component_edge_count k v c

let colored_incident t v c =
  match t with
  | Boxed b -> Boxed.colored_incident b v c
  | Csr (_, k) -> Csr_backed.colored_incident k v c

let iter_colored_incident t v c f =
  match t with
  | Boxed b -> Boxed.iter_colored_incident b v c f
  | Csr (_, k) -> Csr_backed.iter_colored_incident k v c f

let to_array = function
  | Boxed b -> Boxed.to_array b
  | Csr (_, k) -> Csr_backed.to_array k

let of_array g ~colors a =
  match Nw_graphs.Backend.default () with
  | Nw_graphs.Backend.Boxed -> Boxed (Boxed.of_array g ~colors a)
  | Nw_graphs.Backend.Csr ->
      Csr (g, Csr_backed.of_array (Nw_graphs.Csr.of_multigraph g) ~colors a)

let copy = function
  | Boxed b -> Boxed (Boxed.copy b)
  | Csr (g, k) -> Csr (g, Csr_backed.copy k)

let extend t g' =
  match t with
  | Boxed b -> Boxed (Boxed.extend b g')
  | Csr (_, k) ->
      Csr (g', Csr_backed.extend k (Nw_graphs.Csr.of_multigraph g'))

let connected t c u v =
  match t with
  | Boxed b -> Boxed.connected b c u v
  | Csr (_, k) -> Csr_backed.connected k c u v

(* Derived Multigraphs stay boxed on both arms (they feed passes and
   artifacts that archive them); the CSR arm extracts through the boxed
   source it carries, with the identical keep mask and therefore the
   identical renumbering. *)
let subgraph t c =
  match t with
  | Boxed b -> Boxed.subgraph b c
  | Csr (g, k) ->
      let keep =
        Array.map
          (function Some c' -> c' = c | None -> false)
          (Csr_backed.to_array k)
      in
      MG.subgraph_of_edges g keep
