(* The three workloads and their seeded inputs.

   A workload's arrivals are drawn once, before anything is timed, into a
   compact byte form (4 bytes per (color, count) pair), so the memory a
   run reports is mostly the scheduler's own, not the generator's.  The
   same seed always gives the same bytes. *)

module Rng = Rrs_prng.Rng

(* Color popularity is Zipf with this exponent on every workload. *)
let zipf_s = 1.1

type kind = Batch | Pipelined | Interactive

type spec = {
  name : string;
  kind : kind;
  colors : int;
  delta : int;
  n : int;  (** resources at creation *)
  n_alt : int;  (** the other resource count of the interactive switch *)
  max_log_delay : int;  (** delay bounds are 2^1 .. 2^max_log_delay *)
  load : float;  (** mean jobs offered per round *)
  rounds : int;  (** rounds that receive arrivals *)
  reconfigure_every : int;  (** interactive: writer commands per switch *)
  state_every : int;  (** interactive: writer commands per reader [state] *)
}

let batch_zipf =
  {
    name = "batch-zipf";
    kind = Batch;
    colors = 1024;
    delta = 8;
    n = 64;
    n_alt = 64;
    max_log_delay = 8;
    load = 60.0;
    rounds = 12_000;
    reconfigure_every = 0;
    state_every = 0;
  }

let serve_pipelined =
  {
    name = "serve-pipelined";
    kind = Pipelined;
    colors = 64;
    delta = 4;
    n = 8;
    n_alt = 8;
    max_log_delay = 6;
    load = 7.0;
    rounds = 6_000;
    reconfigure_every = 0;
    state_every = 0;
  }

let serve_interactive =
  {
    name = "serve-interactive";
    kind = Interactive;
    colors = 1024;
    delta = 8;
    n = 32;
    n_alt = 16;
    max_log_delay = 8;
    load = 22.0;
    rounds = 800;
    reconfigure_every = 250;
    state_every = 16;
  }

let all = [ batch_zipf; serve_pipelined; serve_interactive ]
let find name = List.find_opt (fun s -> s.name = name) all
let max_n s = max s.n s.n_alt

type arrivals = {
  delay : int array;
  start : int array;
      (** pairs of round [r] are [start.(r) .. start.(r+1) - 1] *)
  pairs : Bytes.t;  (** per pair: color, count as two little-endian u16 *)
  jobs : int;
  horizon : int;  (** first round after every deadline, as {!Rrs_core.Instance} *)
}

let rounds a = Array.length a.start - 1
let color a i = Bytes.get_uint16_le a.pairs (4 * i)
let count a i = Bytes.get_uint16_le a.pairs ((4 * i) + 2)

(* Per round: a Poisson number of jobs, each of a Zipf-popular color.
   The color of popularity rank [r] is drawn by a seeded permutation,
   and its delay bound is 2^(1 + r mod max_log_delay): every seed gives
   each delay bound the same share of the load, so seeds differ in
   which colors and rounds the jobs fall on, not in how hard the
   workload is.  Colors within a round are sorted and coalesced, the
   order {!Rrs_core.Instance} normalises to, so a streamed feed matches
   the batch run exactly. *)
let generate spec ~seed =
  let rng = Rng.create ~seed in
  let perm = Array.init spec.colors Fun.id in
  Rng.shuffle rng perm;
  let delay = Array.make spec.colors 0 in
  Array.iteri (fun r c -> delay.(c) <- 1 lsl (1 + (r mod spec.max_log_delay))) perm;
  let start = Array.make (spec.rounds + 1) 0 in
  let pairs = Buffer.create (spec.rounds * 64) in
  let counts = Array.make spec.colors 0 in
  let touched = ref [] in
  let npairs = ref 0 and jobs = ref 0 and horizon = ref 0 in
  for r = 0 to spec.rounds - 1 do
    start.(r) <- !npairs;
    for _ = 1 to Rng.poisson rng ~mean:spec.load do
      let c = perm.(Rng.zipf rng ~n:spec.colors ~s:zipf_s) in
      if counts.(c) = 0 then touched := c :: !touched;
      counts.(c) <- counts.(c) + 1
    done;
    List.iter
      (fun c ->
        Buffer.add_uint16_le pairs c;
        Buffer.add_uint16_le pairs counts.(c);
        jobs := !jobs + counts.(c);
        horizon := max !horizon (r + delay.(c));
        counts.(c) <- 0;
        incr npairs)
      (List.sort compare !touched);
    touched := []
  done;
  start.(spec.rounds) <- !npairs;
  { delay; start; pairs = Buffer.to_bytes pairs; jobs = !jobs; horizon = !horizon }

(* A sub-seed per stream (the two pipelined sessions draw different
   arrivals from one workload seed). *)
let stream_seed ~seed i = (seed * 7919) + i

let instance spec a =
  let arrivals = ref [] in
  for r = rounds a - 1 downto 0 do
    for i = a.start.(r + 1) - 1 downto a.start.(r) do
      arrivals :=
        { Rrs_core.Types.round = r; color = color a i; count = count a i }
        :: !arrivals
    done
  done;
  Rrs_core.Instance.create ~name:spec.name ~delta:spec.delta
    ~delay:(Array.copy a.delay) ~arrivals:!arrivals ()

(* ---- the command stream a serve client sends -------------------- *)

(* What one writer command is, for the replies it must get and for the
   in-process replay of the same stream. *)
type cmd =
  | Submit of int * int * int  (** round, color, count *)
  | Step
  | Switch of int  (** reconfigure n= *)
  | Read  (** a [state] on the reader connection *)

let cmd_line = function
  | Submit (r, c, k) -> Printf.sprintf "submit %d %d %d" r c k
  | Step -> "step 1"
  | Switch n -> Printf.sprintf "reconfigure n=%d" n
  | Read -> "state"

(* The line that sets every color's delay bound, sent once after the
   session is opened (the server starts every session at one uniform
   bound). *)
let delay_line a =
  "reconfigure delay="
  ^ String.concat ","
      (Array.to_list (Array.mapi (fun c d -> Printf.sprintf "%d:%d" c d) a.delay))

(* Every arrival round's submits then one [step 1], then steps through
   the horizon so that every job resolves.  The interactive workload
   interleaves a resource-count switch every [reconfigure_every] writer
   commands and a reader [state] every [state_every]. *)
let commands spec a =
  let out = ref [] and writes = ref 0 and n_now = ref spec.n in
  let every k = k > 0 && !writes mod k = 0 in
  let emit c =
    out := c :: !out;
    incr writes;
    if every spec.reconfigure_every then begin
      n_now := if !n_now = spec.n then spec.n_alt else spec.n;
      out := Switch !n_now :: !out
    end;
    if every spec.state_every then out := Read :: !out
  in
  for r = 0 to a.horizon do
    if r < rounds a then
      for i = a.start.(r) to a.start.(r + 1) - 1 do
        emit (Submit (r, color a i, count a i))
      done;
    emit Step
  done;
  Array.of_list (List.rev !out)
