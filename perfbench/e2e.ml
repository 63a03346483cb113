(* The untraced runs: every end-to-end metric of one workload.

   A run repeats one fixed unit of work -- a "rep", the whole op stream
   drawn from the seed -- until the run's seconds are spent, so every
   rep of every run of a seed does identical work.  Throughput and
   latency are taken over windows of [window_cmds] consecutive replies
   and reported as the median over every window of the run; set-up,
   restore and memory as the median over reps (restore: over every
   sample of every rep). *)

open Rrs_core
module Session = Engine.Session
module Server = Rrs_service.Server
module Journal = Rrs_service.Journal
module Snapshot = Rrs_service.Snapshot

let now = Client.now

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
}

(* ---- small statistics --------------------------------------------- *)

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile sorted q =
  let n = Float.Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  let at j = Float.Array.get sorted (min j (n - 1)) in
  at i +. (frac *. (at (i + 1) -. at i))

let sort_floats a =
  let a = Float.Array.copy a in
  Float.Array.sort compare a;
  a

let median xs = quantile (sort_floats (Float.Array.of_list xs)) 0.5

(* Run [rep] over and over until [seconds] have passed since the first
   started (at least once). *)
let repeat ~seconds rep =
  let t0 = now () in
  let rec go i acc =
    let acc = rep i :: acc in
    if now () -. t0 < seconds then go (i + 1) acc else List.rev acc
  in
  go 0 []

(* Output checks that failed, for the run's [correct] verdict. *)
let problems = ref []

let check ok fmt = Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt

(* ---- the timed phase, reply by reply --------------------------------- *)

(* What a rep's timed phase leaves, per command in reply order (for
   batch-zipf a command is one round's feeds and its step): the instant
   its reply came, its send-to-reply latency, and the jobs it
   submitted. *)
type timeline = { start : float; ack : Float.Array.t; lat : Float.Array.t; jobs : int array }

(* About 10-60 ms of work on every workload, and enough replies that the
   window's p99 has ten beyond it.  A window is short next to the
   stalls this host's neighbours cause, so the median over windows
   reports the program, not them. *)
let window_cmds = 1024

(* Jobs per second, p50 and p99 latency (µs) of every whole window. *)
let windows tl =
  List.init (Float.Array.length tl.ack / window_cmds) (fun w ->
      let lo = w * window_cmds and hi = ((w + 1) * window_cmds) - 1 in
      let t0 = if lo = 0 then tl.start else Float.Array.get tl.ack (lo - 1) in
      let jobs = ref 0 in
      for i = lo to hi do
        jobs := !jobs + tl.jobs.(i)
      done;
      let lat = sort_floats (Float.Array.sub tl.lat lo window_cmds) in
      ( float_of_int !jobs /. (Float.Array.get tl.ack hi -. t0),
        1e6 *. quantile lat 0.5,
        1e6 *. quantile lat 0.99 ))

(* Several connections' timelines as one, in reply order. *)
let merge tls =
  let all =
    List.concat_map
      (fun tl ->
        List.init (Float.Array.length tl.ack) (fun i ->
            (Float.Array.get tl.ack i, Float.Array.get tl.lat i, tl.jobs.(i))))
      tls
    |> List.sort compare |> Array.of_list
  in
  {
    start = List.fold_left (fun acc tl -> Float.min acc tl.start) infinity tls;
    ack = Float.Array.map_from_array (fun (t, _, _) -> t) all;
    lat = Float.Array.map_from_array (fun (_, l, _) -> l) all;
    jobs = Array.map (fun (_, _, j) -> j) all;
  }

let jobs_of = function Gen.Submit (_, _, k) -> k | _ -> 0

(* A rep keeps only what its metrics need, so the bench's own memory
   does not grow with the number of reps. *)
type rep = {
  setup : float;
  windows : (float * float * float) list;  (** jobs/s, p50 µs, p99 µs *)
  restore : float list;
  peak : float;  (** MB; serve workloads only *)
}

let metrics reps ~cost ~lb ~peak =
  let w = List.concat_map (fun r -> r.windows) reps in
  let pick f = median (List.map f w) in
  [
    ("setup_s", median (List.map (fun r -> r.setup) reps), "s");
    ("jobs_per_s", pick (fun (j, _, _) -> j), "1/s");
    ("cmd_p50_us", pick (fun (_, p, _) -> p), "us");
    ("cmd_p99_us", pick (fun (_, _, p) -> p), "us");
    ("restore_s", median (List.concat_map (fun r -> r.restore) reps), "s");
    ("cost_per_lb", float_of_int cost /. float_of_int lb, "ratio");
    ("peak_mem_mb", peak, "MB");
  ]

(* ---- the checks' independent side ------------------------------------ *)

let total_cost (s : Snapshot.t) = s.reconfig_cost + s.dropped

(* The independent computation a streamed result must equal: the batch
   engine over the same arrivals, with its recorded schedule accepted
   by the validator. *)
let validated_run spec a =
  let inst = Gen.instance spec a in
  let r =
    Engine.run (Engine.config ~record_schedule:true ~n:spec.Gen.n ()) inst Lru_edf.policy
  in
  let report = Validator.check_result inst r in
  check report.Validator.ok "%s: the validator rejects the recorded batch run"
    spec.Gen.name;
  r

let lower_bound spec a =
  Offline_bounds.lower_bound (Gen.instance spec a) ~m:(Gen.max_n spec)

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* ---- batch-zipf ------------------------------------------------------ *)

(* The engine alone: a streamed session fed each round's arrivals just
   in time, then stepped.  Its restore is [Server.open_session]
   replaying the journal of the first [restore_rounds] rounds -- the
   service's restore path without a socket -- once per rep, after the
   timed phase.  Its peak memory is read after the first rep's timed
   phase, before any restore ran. *)
let restore_rounds = 1_500

let batch ~seed ~seconds =
  let spec = Gen.batch_zipf in
  let attempted = ref 0 and failed = ref 0 in
  let create a =
    Session.create (Engine.config ~n:spec.n ()) ~delta:spec.delta
      ~delay:(Array.copy a.Gen.delay) Lru_edf.policy
  in
  (* the journal the restores replay *)
  let a = Gen.generate spec ~seed in
  let dir = Filename.concat (Sys.getcwd ()) "restore" in
  let sdir = Filename.concat (Filename.concat dir "sessions") "batch" in
  rm_rf dir;
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote sdir)));
  let w =
    Journal.create (Filename.concat sdir "journal.jsonl")
      {
        Journal.version = Journal.header_version;
        policy = "dlru-edf";
        n = spec.n;
        delta = spec.delta;
        delay = Array.copy a.delay;
        mini_rounds = 1;
      }
  in
  for r = 0 to restore_rounds - 1 do
    for i = a.start.(r) to a.start.(r + 1) - 1 do
      Journal.append w (Journal.Submit { round = r; color = Gen.color a i; count = Gen.count a i })
    done;
    Journal.append w (Journal.Step 1)
  done;
  Journal.close w;
  let config =
    {
      Server.default_config with
      n = spec.n;
      delta = spec.delta;
      delay = Array.copy a.delay;
      checkpoint_dir = Some dir;
      checkpoint_every = 0;
    }
  in
  let at_restore = ref None and results = ref [] and peak = ref 0. in
  let reps =
    repeat ~seconds (fun i ->
        let t0 = now () in
        let a = Gen.generate spec ~seed in
        let s = create a in
        let rounds = a.horizon + 1 in
        let ack = Float.Array.make rounds 0. and lat = Float.Array.make rounds 0. in
        let jobs = Array.make rounds 0 in
        let start = now () in
        let paused = ref 0. in
        for r = 0 to a.horizon do
          if r = restore_rounds && i = 0 then begin
            let p0 = now () in
            at_restore := Some (Snapshot.of_session ~ops:0 s);
            paused := now () -. p0
          end;
          let r0 = now () in
          if r < Gen.rounds a then
            for i = a.start.(r) to a.start.(r + 1) - 1 do
              incr attempted;
              jobs.(r) <- jobs.(r) + Gen.count a i;
              match Session.feed s ~round:r ~color:(Gen.color a i) ~count:(Gen.count a i) with
              | Ok () -> ()
              | Error _ -> incr failed
            done;
          Session.step s;
          let r1 = now () in
          Float.Array.set lat r (r1 -. r0);
          Float.Array.set ack r (r1 -. !paused)
        done;
        let res = Session.finish s in
        results :=
          (res.executed, res.dropped, res.reconfigurations, res.cost) :: !results;
        (* the memory of the timed phase, before anything else ran *)
        if i = 0 then peak := Client.self_peak_mb ();
        let h = Server.host config in
        let r0 = now () in
        let restored = Server.open_session h "batch" in
        let restore = now () -. r0 in
        let got = Server.session_snapshot restored in
        check
          (Snapshot.equal got { (Option.get !at_restore) with ops = got.ops })
          "batch-zipf: the restored session differs from the live one";
        Server.abandon_session h restored;
        {
          setup = start -. t0;
          windows = windows { start; ack; lat; jobs };
          restore = [ restore ];
          peak = !peak;
        })
  in
  rm_rf dir;
  let r = validated_run spec a in
  List.iter
    (fun (executed, dropped, reconfigurations, cost) ->
      check
        (executed = r.executed && dropped = r.dropped
        && reconfigurations = r.reconfigurations
        && Cost.equal cost r.cost)
        "batch-zipf: streamed result differs from the validated batch run";
      check (executed + dropped = a.jobs) "batch-zipf: jobs not conserved")
    !results;
  let lb = lower_bound spec a in
  check (Cost.total r.cost >= lb) "batch-zipf: cost below the lower bound";
  {
    metrics = metrics reps ~cost:(Cost.total r.cost) ~lb ~peak:!peak;
    attempted = !attempted;
    failed = !failed;
  }

(* ---- the serve workloads -------------------------------------------- *)

(* Every session starts at one uniform bound; the first op of each sets
   the workload's per-color bounds ({!Gen.delay_line}). *)
let serve_args spec =
  [
    "--socket"; "s.sock"; "--checkpoint-dir"; "state";
    "--colors"; string_of_int spec.Gen.colors; "--delay-bound"; "2";
    "-n"; string_of_int spec.Gen.n; "--delta"; string_of_int spec.Gen.delta;
    "--queue-limit"; "64";
  ]

(* Pipelined commands in flight per connection, far below --queue-limit
   so admission control never answers [busy].  A small window keeps a
   host stall from delaying more than a few commands at once. *)
let window = 4

let start ~rrs spec =
  let server = Client.spawn ~rrs ~log:"serve.log" (serve_args spec) in
  let connect () =
    let c = Client.connect ~server ~deadline:(now () +. 30.) "s.sock" in
    ignore (Client.switch_reply c);
    c
  in
  (server, connect)

let open_session c name a =
  Client.send c ("open " ^ name);
  let reply = Client.switch_reply c in
  check (Client.starts_with ~prefix:"ok session" reply) "open %s answered %S" name reply;
  let line = Gen.delay_line a in
  let reply = Client.call c line in
  check (Client.starts_with ~prefix:"ok reconfigured" reply) "%S answered %S" line reply

let state c =
  match Snapshot.of_line (Client.call c "state") with
  | Ok s -> s
  | Error e -> failwith ("unreadable state reply: " ^ e)

(* After the kill: [open] on a fresh server must restore exactly the
   state acked before it.  Returns the time from [open] to its reply. *)
let reopen c name (before : Snapshot.t) =
  let t0 = now () in
  Client.send c ("open " ^ name);
  let reply = Client.switch_reply c in
  let t = now () -. t0 in
  let expected =
    Printf.sprintf "ok restored name=%s round=%d ops=%d" name before.round before.ops
  in
  check (Client.starts_with ~prefix:expected reply) "reopen %s answered %S, expected %S"
    name reply expected;
  check (Snapshot.equal (state c) before) "%s: the restored state differs" name;
  t

(* Kill the server that acked [finals], then restore each named session
   in a fresh server of its own on the same directory, timing [open]
   until [ok restored].  Returns those times and the largest peak
   resident set of all the servers.  A server restores one session, so
   its peak is that session's restore and not the sum of several. *)
let kill_and_restore ~rrs spec server restores =
  let peak = ref (Client.server_peak_mb server) in
  Client.kill server;
  let times =
    List.map
      (fun (name, final) ->
        let server, connect = start ~rrs spec in
        let c = connect () in
        let t = reopen c name final in
        peak := Float.max !peak (Client.server_peak_mb server);
        Client.kill server;
        Client.close c;
        t)
      restores
  in
  (times, !peak)

let serve_outcome reps ~cost ~lb ~attempted ~failed =
  {
    metrics = metrics reps ~cost ~lb ~peak:(median (List.map (fun r -> r.peak) reps));
    attempted;
    failed;
  }

(* Two connections, each streaming its own durable session with
   [window] commands in flight. *)
let pipelined ~rrs ~seed ~seconds =
  let spec = Gen.serve_pipelined in
  let attempted = ref 0 and failed = ref 0 in
  let arrivals = Array.init 2 (fun k -> Gen.generate spec ~seed:(Gen.stream_seed ~seed k)) in
  let finals = ref [] in
  let reps =
    repeat ~seconds (fun i ->
        rm_rf "state";
        let t0 = now () in
        let streams =
          Array.init 2 (fun k ->
              let a = Gen.generate spec ~seed:(Gen.stream_seed ~seed k) in
              (a, Gen.commands spec a))
        in
        let server, connect = start ~rrs spec in
        let names = Array.init 2 (Printf.sprintf "p%d-%d" i) in
        let conns =
          Array.mapi
            (fun k (a, cmds) ->
              let c = connect () in
              open_session c names.(k) a;
              (c, Array.map Gen.cmd_line cmds))
            streams
        in
        let start = now () in
        let replies =
          Client.pipeline ~window conns ~reply:(fun _ _ line ->
              incr attempted;
              if not (Client.starts_with ~prefix:"ok" line) then incr failed)
        in
        let timeline =
          merge
            (List.init 2 (fun k ->
                 let ack, lat = replies.(k) in
                 { start; ack; lat; jobs = Array.map jobs_of (snd streams.(k)) }))
        in
        let final = Array.map (fun (c, _) -> state c) conns in
        Array.iter (fun (c, _) -> Client.close c) conns;
        finals := final :: !finals;
        let restore, peak =
          kill_and_restore ~rrs spec server [ (names.(0), final.(0)); (names.(1), final.(1)) ]
        in
        { setup = start -. t0; windows = windows timeline; restore; peak })
  in
  rm_rf "state";
  let cost = ref 0 and lb = ref 0 in
  Array.iteri
    (fun k a ->
      let r = validated_run spec a in
      List.iter
        (fun (final : Snapshot.t array) ->
          let s = final.(k) in
          check
            (s.executed = r.executed && s.dropped = r.dropped
            && s.reconfigurations = r.reconfigurations
            && s.reconfig_cost = r.cost.Cost.reconfig
            && s.pending_jobs = 0)
            "serve-pipelined: session %d differs from the validated batch run" k)
        !finals;
      cost := !cost + Cost.total r.cost;
      lb := !lb + lower_bound spec a)
    arrivals;
  check (!cost >= !lb) "serve-pipelined: cost below the lower bound";
  serve_outcome reps ~cost:!cost ~lb:!lb ~attempted:!attempted ~failed:!failed

(* A closed loop on one session: the writer's commands one at a time,
   and a [state] on the reader connection every [state_every] of them. *)
let interactive ~rrs ~seed ~seconds =
  let spec = Gen.serve_interactive in
  let attempted = ref 0 and failed = ref 0 in
  let a = Gen.generate spec ~seed in
  let cmds = Gen.commands spec a in
  let finals = ref [] in
  let reps =
    repeat ~seconds (fun i ->
        rm_rf "state";
        let t0 = now () in
        let a = Gen.generate spec ~seed in
        let cmds = Gen.commands spec a in
        let lines = Array.map Gen.cmd_line cmds in
        let server, connect = start ~rrs spec in
        let name = Printf.sprintf "i%d" i in
        let writer = connect () in
        open_session writer name a;
        let reader = connect () in
        Client.send reader ("attach " ^ name);
        let reply = Client.switch_reply reader in
        check (Client.starts_with ~prefix:"ok attached" reply) "attach answered %S" reply;
        let last_round = ref 0 in
        let start = now () in
        let ack, lat =
          Client.closed_loop ~writer ~reader lines
            ~on_reader:(fun j -> cmds.(j) = Gen.Read)
            ~reply:(fun j reply ->
              incr attempted;
              match cmds.(j) with
              | Gen.Read -> (
                  match Snapshot.of_line reply with
                  | Ok s ->
                      check (s.round >= !last_round) "serve-interactive: state round went back";
                      last_round := s.round
                  | Error _ -> incr failed)
              | _ -> if not (Client.starts_with ~prefix:"ok" reply) then incr failed)
        in
        let final = state writer in
        Client.close writer;
        Client.close reader;
        finals := final :: !finals;
        let restore, peak =
          kill_and_restore ~rrs spec server [ (name, final); (name, final) ]
        in
        {
          setup = start -. t0;
          windows = windows { start; ack; lat; jobs = Array.map jobs_of cmds };
          restore;
          peak;
        })
  in
  rm_rf "state";
  (* the same ops in process: the served session must end in this state *)
  let live =
    Session.create (Engine.config ~n:spec.n ()) ~delta:spec.delta
      ~delay:(Array.copy a.delay) Lru_edf.policy
  in
  Array.iter
    (function
      | Gen.Submit (round, color, count) -> ignore (Session.feed live ~round ~color ~count)
      | Gen.Step -> Session.step live
      | Gen.Switch n -> ignore (Session.reconfigure live ~n ())
      | Gen.Read -> ())
    cmds;
  let lb = lower_bound spec a in
  List.iter
    (fun (f : Snapshot.t) ->
      check
        (Snapshot.equal f (Snapshot.of_session ~ops:f.ops live))
        "serve-interactive: served state differs from the in-process run";
      check (f.executed + f.dropped + f.pending_jobs + f.future_arrivals = a.jobs)
        "serve-interactive: jobs not conserved";
      check (f.reconfig_cost = spec.delta * f.reconfigurations)
        "serve-interactive: reconfig cost is not delta x recolorings";
      check (total_cost f >= lb) "serve-interactive: cost below the lower bound")
    !finals;
  serve_outcome reps ~cost:(total_cost (List.hd !finals)) ~lb ~attempted:!attempted
    ~failed:!failed
