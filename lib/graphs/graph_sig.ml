(** The read-only graph interface of the functorized cores.

    Everything a LOCAL-model kernel or decomposition primitive needs to
    {e read} a graph. {!Multigraph} is the one implementation; the
    functors over it ([Msg_net.Make], [Coloring.Make], [Augmenting.Make],
    [Cut.Rules], [Forest_algo.Core]) are each applied once, to it.

    Order contract: [iter_incident]/[fold_incident] enumerate
    [(neighbor, edge)] pairs in ascending edge-id order, and [ball]
    returns vertices in reversed BFS-visit order. [test/test_csr.ml]
    checks every operation against a reference adjacency kept in the
    test. *)

module type GRAPH = sig
  type t

  val n : t -> int
  val m : t -> int

  (** Endpoints of an edge, as given at construction ([src], [dst]). *)
  val endpoints : t -> int -> int * int

  (** First endpoint of an edge, as given at construction. Equivalent to
      [fst (endpoints g e)] but never allocates — the coloring cache and
      augmenting core resolve DLL node ids to vertices through these. *)
  val src : t -> int -> int

  (** Second endpoint of an edge, as given at construction. *)
  val dst : t -> int -> int

  (** [other_endpoint g e v] is the endpoint of [e] that is not [v].
      @raise Invalid_argument if [v] is not an endpoint of [e]. *)
  val other_endpoint : t -> int -> int -> int

  val degree : t -> int -> int
  val max_degree : t -> int

  (** [iter_incident g v f] calls [f neighbor edge_id] for every incident
      edge of [v], in ascending edge-id order, without allocating;
      parallel edges appear once per edge id. *)
  val iter_incident : t -> int -> (int -> int -> unit) -> unit

  (** [fold_incident g v ~init f] folds [f acc neighbor edge_id] in the
      same order as {!iter_incident}. *)
  val fold_incident : t -> int -> init:'a -> ('a -> int -> int -> 'a) -> 'a

  (** All edges as [(u, v)] indexed by edge id. Fresh array. *)
  val edges : t -> (int * int) array

  (** [fold_edges f g init] folds [f edge_id u v] over all edges. *)
  val fold_edges : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a

  (** [true] when no two edges share the same unordered endpoint pair. *)
  val is_simple : t -> bool

  (** [ball g v r]: vertices within distance [r] of [v], including [v],
      in reversed BFS-visit order. *)
  val ball : t -> int -> int -> int list

  (** [ball_of_set g vs r]: membership array of vertices within distance
      [r] of the vertex set [vs]. *)
  val ball_of_set : t -> int list -> int -> bool array

  val pp : Format.formatter -> t -> unit
end

(** {!GRAPH} plus the one piece of derived-graph surgery the functorized
    core needs: per-color subgraph extraction for {!Cut}'s depth-mod rule
    (kept edges renumbered in ascending original edge-id order, vertex ids
    preserved). *)
module type GRAPH_EXT = sig
  include GRAPH

  (** [subgraph_of_edges g keep] is the subgraph on the same vertex set
      containing exactly the edges [e] with [keep.(e)], plus the map from
      new edge ids back to original ones (ascending). *)
  val subgraph_of_edges : t -> bool array -> t * int array
end
