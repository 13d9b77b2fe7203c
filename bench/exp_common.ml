(* Shared toolkit for the experiment harness: fixed-seed RNGs, table
   rendering, and verified-measurement helpers. Every number printed by an
   experiment is produced after the corresponding output passed the
   Nw_decomp.Verify checkers, so the tables cannot report invalid
   decompositions. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify

let rng seed = Random.State.make [| seed; 0xbead |]

(* short hash of the checked-out commit, stamped into BENCH records;
   None outside a git checkout *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> (match line with Some "" -> None | l -> l)
    | _ -> None
  with _ -> None

(* ------------------------------------------------------------------ *)
(* round attribution                                                   *)
(* ------------------------------------------------------------------ *)

(* Experiments are attributed rounds per *domain*, not via the process-wide
   grand total: under `--domains K` every experiment runs wholly on one
   domain, so the delta of [Rounds.domain_total] around it counts exactly
   the charges of that experiment, while grand-total deltas would also
   absorb whatever the other workers charged meanwhile. *)
let domain_rounds_baseline () = Rounds.domain_total ()
let domain_rounds_since r0 = Rounds.domain_total () - r0

(* ------------------------------------------------------------------ *)
(* output sink                                                         *)
(* ------------------------------------------------------------------ *)

(* Every printing helper below writes through a domain-local sink. In the
   default (sequential) mode the sink is stdout; when `--domains K` fans
   experiments across Domain.spawn workers, each worker redirects its sink
   to a per-experiment buffer so tables never interleave — the harness
   prints the buffers in experiment order after joining. *)
let sink : Buffer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_sink buf f =
  Domain.DLS.set sink (Some buf);
  Fun.protect ~finally:(fun () -> Domain.DLS.set sink None) f

let emit s =
  match Domain.DLS.get sink with
  | Some b -> Buffer.add_string b s
  | None -> print_string s

let out fmt = Printf.ksprintf emit fmt

let flush_out () =
  match Domain.DLS.get sink with None -> flush stdout | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* table rendering                                                     *)
(* ------------------------------------------------------------------ *)

(* when set (--csv DIR), every table is also written as DIR/<slug>.csv *)
let csv_dir : string option ref = ref None

(* set by the harness under --json: experiments that persist their own
   record (exp_scaling's BENCH_scaling.json) key off this *)
let json_enabled = ref false

let csv_slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    title

let write_csv ~title ~header ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (* tolerate the mkdir race between parallel bench domains *)
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error _ -> ());
      let path = Filename.concat dir (csv_slug title ^ ".csv") in
      let oc = open_out path in
      let quote cell =
        if String.exists (fun c -> c = ',' || c = '"') cell then
          "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
        else cell
      in
      List.iter
        (fun row ->
          output_string oc (String.concat "," (List.map quote row));
          output_char oc '\n')
        (header :: rows);
      close_out oc

let hrule widths =
  String.concat "-+-" (List.map (fun w -> String.make w '-') widths)

let render_row widths cells =
  String.concat " | "
    (List.map2
       (fun w c ->
         if String.length c >= w then c
         else c ^ String.make (w - String.length c) ' ')
       widths cells)

let table ~title ~header ~rows =
  let all = header :: rows in
  let columns = List.length header in
  let widths =
    List.init columns (fun i ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          0 all)
  in
  out "\n== %s ==\n" title;
  out "%s\n" (render_row widths header);
  out "%s\n" (hrule widths);
  List.iter (fun row -> out "%s\n" (render_row widths row)) rows;
  write_csv ~title ~header ~rows;
  flush_out ()

let note fmt = Printf.ksprintf (fun s -> emit ("   " ^ s ^ "\n")) fmt

let section title =
  out "\n######## %s ########\n" title;
  flush_out ()

(* ------------------------------------------------------------------ *)
(* formatting                                                          *)
(* ------------------------------------------------------------------ *)

let d = string_of_int
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let yes_no b = if b then "yes" else "no"

(* asserts validity and returns a printable tag; the harness aborts loudly
   if an algorithm ever produces a bad output *)
let verified report =
  match report with
  | Ok () -> "ok"
  | Error msg -> failwith ("benchmark produced an invalid output: " ^ msg)

(* ------------------------------------------------------------------ *)
(* measured decompositions                                             *)
(* ------------------------------------------------------------------ *)

type fd_measurement = {
  colors : int;
  diameter : int;
  rounds : int;
  valid : string;
}

let measure_fd ?(star = false) coloring rounds =
  let report =
    if star then Verify.star_forest_decomposition coloring
    else Verify.forest_decomposition coloring
  in
  {
    colors = Verify.colors_used coloring;
    diameter = Verify.max_forest_diameter coloring;
    rounds = Rounds.total rounds;
    valid = verified report;
  }
