(* RACE001 fixture: spawned domains mutating shared global state.

   [spawn_sum] reaches a global-ref write three calls deep under a
   Domain.spawn thunk; [record_seen] hands Domain.spawn a named local
   function that writes a global. Both must be flagged: the write order
   against the spawning domain's own writes depends on the scheduler,
   so outputs stop being byte-identical. *)

let total = ref 0
let bump n = total := !total + n
let work xs = List.iter (fun x -> bump x) xs

let spawn_sum xs = Domain.join (Domain.spawn (fun () -> work xs))

let seen = ref []

let record_seen v =
  let note () = seen := v :: !seen in
  Domain.join (Domain.spawn note)
