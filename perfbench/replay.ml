(* The serve-churn request script, in-process through Session: no
   socket, no Wire, no Server dispatch. run.py writes the graph it loads
   into the daemon and the script its client sent, one request a line:
   "s" (stats), "i U V" (insert-edge), "d SLOT" (delete-edge). *)

module G = Nw_graphs.Multigraph
module Session = Nw_service.Session

(* the set-up run.py's client sends on the wire *)
let alpha = 3
let epsilon = 0.5
let algorithm = "augment"

type result = {
  problems : string list;
  create_s : float;
  decompose_s : float;
  insert_ms : float list;
  delete_ms : float list;
  churn_wall_s : float;
  fallback_ms : float;
  fallbacks : int;
  incremental : int;
}

let read_script path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> go (String.split_on_char ' ' line :: acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run ~graph ~script ~seed =
  let g = Nw_graphs.Graph_io.read_edge_list graph in
  let script = read_script script in
  let s, create_s =
    timed (fun () ->
        Span.with_ "service.create" (fun () ->
            Session.create ~name:"churn" ~n:(G.n g) ~edges:(Array.to_list (G.edges g))))
  in
  let entry = Option.get (Nw_engine.Registry.find algorithm) in
  let d, decompose_s =
    timed (fun () ->
        Span.with_ "service.decompose" (fun () ->
            Session.decompose s ~entry ~epsilon ~seed ~alpha:(Some alpha)))
  in
  let problems =
    ref
      (match d with
      | Ok { Session.d_verified = Ok (); _ } -> []
      | Ok { Session.d_verified = Error m; _ } | Error m -> [ "decompose: " ^ m ])
  in
  let insert_ms = ref [] and delete_ms = ref [] and fallback_ms = ref 0.0 in
  let churn name samples f =
    let r, s = timed (fun () -> Span.with_ name f) in
    let ms = s *. 1000.0 in
    samples := ms :: !samples;
    match r with
    | Ok { Session.ch_mode = Session.Fallback; _ } -> fallback_ms := !fallback_ms +. ms
    | Ok _ -> ()
    | Error m -> problems := (name ^ ": " ^ m) :: !problems
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (function
      | [ "s" ] ->
          Span.with_ "service.stats" (fun () ->
              ignore (Session.live_edges s + Session.epoch s + Session.fallbacks s))
      | [ "i"; u; v ] ->
          churn "service.insert_edge" insert_ms (fun () ->
              Session.insert_edge s ~u:(int_of_string u) ~v:(int_of_string v))
      | [ "d"; e ] ->
          churn "service.delete_edge" delete_ms (fun () ->
              Session.delete_edge s ~edge:(int_of_string e))
      | l -> failwith ("bad script line: " ^ String.concat " " l))
    script;
  {
    problems = !problems;
    create_s;
    decompose_s;
    insert_ms = !insert_ms;
    delete_ms = !delete_ms;
    churn_wall_s = Unix.gettimeofday () -. t0;
    fallback_ms = !fallback_ms;
    fallbacks = Session.fallbacks s;
    incremental = Session.incremental_updates s;
  }
