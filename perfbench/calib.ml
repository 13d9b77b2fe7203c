(* The calibration slab: pointer chasing around one random cycle of 2M
   boxed cells (about 64 MB of heap), calling nothing in lib/. The
   decomposition passes are bound by memory latency too, so on a shared
   host this slab slows down with them: on a 2-vCPU Xeon VM, back-to-back
   fd-augment ops slowed by 43% while the host was busy, and op wall
   divided by the slab's time moved 3%. run.py runs this process next to
   the program's work and reports times at the slab's reference speed.
   Changing this file changes every reported time: it is part of the
   benchmark's definition. Prints {"calib_s": seconds}. *)

type cell = { mutable next : cell option; v : int }

let run () =
  let rng = Random.State.make [| 0xca11b |] in
  let n = 2_000_000 in
  let cells = Array.init n (fun v -> { next = None; v }) in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  for i = 0 to n - 2 do
    cells.(perm.(i)).next <- Some cells.(perm.(i + 1))
  done;
  let sum = ref 0 and c = ref (Some cells.(perm.(0))) in
  while Option.is_some !c do
    let x = Option.get !c in
    sum := !sum + x.v;
    c := x.next
  done;
  !sum

let () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run ()));
  Printf.printf "{\"calib_s\":%.9f}\n" (Unix.gettimeofday () -. t0)
