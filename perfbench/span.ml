(* Spans the benchmark records around its own calls into each layer:
   name, start, end, parent, and the Gc.quick_stat word deltas over the
   span. Off unless [enable] is called, in which case [with_] is a plain
   call. Spans are kept in memory and written once, by [write]. *)

type t = {
  id : int;
  name : string;
  parent : int;
  t0 : float;
  t1 : float;
  minor : float;
  major : float;
}

let enabled = ref false
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let enable () = enabled := true

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let s1 = Gc.quick_stat () in
      open_ids := List.tl !open_ids;
      finished :=
        {
          id;
          name;
          parent;
          t0;
          t1;
          minor = s1.Gc.minor_words -. s0.Gc.minor_words;
          major = s1.Gc.major_words -. s0.Gc.major_words;
        }
        :: !finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* [(name, count, wall, self, minor, major)] per span name, in first-use
   order; self is the wall minus the direct children's walls (children
   run inside their parent, one at a time). *)
let summary () =
  let spans = List.rev !finished in
  let child_wall = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_wall s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_wall s.parent)))
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let wall = s.t1 -. s.t0 in
      let self =
        wall -. Option.value ~default:0.0 (Hashtbl.find_opt child_wall s.id)
      in
      let c, w, sf, mi, ma =
        match Hashtbl.find_opt acc s.name with
        | Some x -> x
        | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name
        (c + 1, w +. wall, sf +. self, mi +. s.minor, ma +. s.major))
    (List.sort (fun a b -> compare a.id b.id) spans);
  List.rev_map
    (fun name ->
      let c, w, sf, mi, ma = Hashtbl.find acc name in
      (name, c, w, sf, mi, ma))
    !order

let summary_json () =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, c, w, sf, mi, ma) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "%s:{\"count\":%d,\"wall_s\":%.9f,\"self_s\":%.9f,\"minor_words\":%.0f,\"major_words\":%.0f}"
        (Nw_obs.Json_lite.Emit.string_value name) c w sf mi ma)
    (summary ());
  Buffer.add_char b '}';
  Buffer.contents b

(* one JSON object per span, in start order *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"minor_words\":%.0f,\"major_words\":%.0f}\n"
        s.id (Nw_obs.Json_lite.Emit.string_value s.name) s.parent s.t0 s.t1 s.minor s.major)
    (List.sort (fun a b -> compare a.id b.id) !finished);
  close_out oc
