(* The traced run: one workload's inputs through each layer in turn,
   timed at the bench's own calls into that layer, plus the library's
   own Rrs_prof spans read back from its Chrome trace as self time.

   - engine: the workload's commands applied to an in-process
     [Engine.Session], once untraced (the bench's own feed/step timing,
     allocation, GC) and once under the profiler (span self times,
     tracing overhead);
   - session operations: [Session.reconfigure], the index rebuild it
     causes, and the [state] snapshot, on the session the engine drive
     left behind;
   - service: the same command lines through [Protocol.parse],
     [Server.apply_op] and [Server.commit] on a durable host, then
     [Server.checkpoint_session];
   - restore: [Journal.load] and [Server.open_session] on that journal;
   - transport: the same lines over the socket to a real [rrs serve],
     less the in-process cost of the same commands. *)

open Rrs_core
module Session = Engine.Session
module Server = Rrs_service.Server
module Journal = Rrs_service.Journal
module Protocol = Rrs_service.Protocol
module Snapshot = Rrs_service.Snapshot

let now = Client.now

(* The traced run takes the commands of the first [max_rounds] rounds:
   all of serve-interactive's, half a serve-pipelined session's, a
   quarter of batch-zipf's. *)
let max_rounds = 3_000

(* The writer commands of the workload's first session, and the
   arrivals they carry. *)
let commands spec ~seed =
  let seed = if spec.Gen.kind = Gen.Pipelined then Gen.stream_seed ~seed 0 else seed in
  let a = Gen.generate spec ~seed in
  let steps = ref 0 in
  let cmds =
    Gen.commands spec a |> Array.to_list
    |> List.filter (fun c ->
           if c = Gen.Step then incr steps;
           !steps <= max_rounds)
    |> Array.of_list
  in
  (a, cmds)

let rounds_of cmds =
  Array.fold_left (fun acc c -> if c = Gen.Step then acc + 1 else acc) 0 cmds

(* ---- self time per span name, from the Chrome trace --------------- *)

type span_total = { mutable self : float; mutable incl : float; mutable count : int }

let span_totals chrome =
  let totals = Hashtbl.create 16 in
  let total name =
    match Hashtbl.find_opt totals name with
    | Some t -> t
    | None ->
        let t = { self = 0.; incl = 0.; count = 0 } in
        Hashtbl.add totals name t;
        t
  in
  let open Rrs_obs.Json in
  let field k ev = Option.get (member k ev) in
  let str k ev = Result.get_ok (to_string_lit (field k ev)) in
  let events = Result.get_ok (to_list (field "traceEvents" (parse_exn chrome))) in
  (* per track: open spans as (name, start, time covered by children) *)
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      match str "ph" ev with
      | ("B" | "E") as ph -> (
          let tid = Result.get_ok (to_int (field "tid" ev)) in
          let ts = Result.get_ok (to_float (field "ts" ev)) in
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          match (ph, stack) with
          | "B", _ -> Hashtbl.replace stacks tid ((str "name" ev, ts, ref 0.) :: stack)
          | _, (name, t0, children) :: rest ->
              let dur = ts -. t0 in
              let t = total name in
              t.self <- t.self +. dur -. !children;
              t.incl <- t.incl +. dur;
              t.count <- t.count + 1;
              (match rest with (_, _, up) :: _ -> up := !up +. dur | [] -> ());
              Hashtbl.replace stacks tid rest
          | _ -> ())
      | _ -> ())
    events;
  fun name -> Option.value ~default:{ self = 0.; incl = 0.; count = 0 } (Hashtbl.find_opt totals name)

(* ---- engine -------------------------------------------------------- *)

let session spec (a : Gen.arrivals) =
  Session.create (Engine.config ~n:spec.Gen.n ()) ~delta:spec.Gen.delta
    ~delay:(Array.copy a.Gen.delay) Lru_edf.policy

type drive = {
  wall : float;
  feed_s : float;
  step_s : float;
  words : float;  (** minor words allocated inside the bench's calls *)
  majors : int;
  live : Session.t;
}

let drive spec a cmds =
  let s = session spec a in
  let feed_s = ref 0. and step_s = ref 0. and words = ref 0. in
  let timed acc f =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    f ();
    acc := !acc +. (now () -. t0);
    words := !words +. (Gc.minor_words () -. w0)
  in
  (* major cycles counted by an alarm: Gc.quick_stat is one of the
     calls the note on [in_child] is about *)
  let majors = ref 0 in
  let alarm = Gc.create_alarm (fun () -> incr majors) in
  let t0 = now () in
  Array.iter
    (function
      | Gen.Submit (round, color, count) ->
          timed feed_s (fun () -> ignore (Session.feed s ~round ~color ~count))
      | Gen.Step -> timed step_s (fun () -> Session.step s)
      | Gen.Switch n -> ignore (Session.reconfigure s ~n ())
      | Gen.Read -> ignore (Snapshot.to_line (Snapshot.of_session ~ops:0 s)))
    cmds;
  let wall = now () -. t0 in
  Gc.delete_alarm alarm;
  { wall; feed_s = !feed_s; step_s = !step_s; words = !words; majors = !majors; live = s }

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median_of k f =
  let xs = List.init k (fun _ -> f ()) in
  E2e.median xs

(* ---- service ------------------------------------------------------- *)

let host spec dir =
  Server.host
    {
      Server.default_config with
      n = spec.Gen.n;
      delta = spec.Gen.delta;
      delay = Array.make spec.Gen.colors 2;
      checkpoint_dir = Some dir;
    }

let op_of = function
  | Protocol.Submit { round; color; count } ->
      Some (Journal.Submit { round = Option.get round; color; count })
  | Protocol.Step k -> Some (Journal.Step k)
  | Protocol.Reconfigure { delta; n; delay } -> Some (Journal.Reconfigure { delta; n; delay })
  | _ -> None

type replay = {
  parse_s : float;
  apply_s : float;
  commit_s : float;
  ops : int;
  lines : int;
}

(* [prelude] is applied and journaled untimed, as [open] is over the
   socket. *)
let replay h name ~prelude lines =
  let sess = Server.open_session h name in
  Array.iter
    (fun line ->
      match op_of (Option.get (Result.get_ok (Protocol.parse line))) with
      | Some op ->
          ignore (Result.get_ok (Server.apply_op sess op));
          Server.commit h sess op
      | None -> ())
    prelude;
  let parse_s = ref 0. and apply_s = ref 0. and commit_s = ref 0. and ops = ref 0 in
  Array.iter
    (fun line ->
      let t0 = now () in
      let cmd = Option.get (Result.get_ok (Protocol.parse line)) in
      let t1 = now () in
      parse_s := !parse_s +. (t1 -. t0);
      match op_of cmd with
      | None ->
          ignore (Snapshot.to_line (Server.session_snapshot sess));
          apply_s := !apply_s +. (now () -. t1)
      | Some op ->
          (match Server.apply_op sess op with
          | Ok _ -> ()
          | Error e -> failwith ("replay refused " ^ line ^ ": " ^ e));
          let t2 = now () in
          Server.commit h sess op;
          let t3 = now () in
          apply_s := !apply_s +. (t2 -. t1);
          commit_s := !commit_s +. (t3 -. t2);
          incr ops)
    lines;
  ( sess,
    { parse_s = !parse_s; apply_s = !apply_s; commit_s = !commit_s; ops = !ops;
      lines = Array.length lines } )

(* ---- the run ------------------------------------------------------- *)

(* The same lines over the socket: pipelined like serve-pipelined, or a
   closed loop with [state] on a second connection like
   serve-interactive.  Returns the wall time and the replies that were
   not [ok] (or, for [state], not a state line). *)
let socket_pass ~rrs spec a cmds lines =
  E2e.rm_rf "state";
  let server, connect = E2e.start ~rrs spec in
  let c = connect () in
  E2e.open_session c "t" a;
  let failed = ref 0 in
  let ok cmd reply =
    match (cmd : Gen.cmd) with
    | Gen.Read -> if Result.is_error (Snapshot.of_line reply) then incr failed
    | _ -> if not (Client.starts_with ~prefix:"ok" reply) then incr failed
  in
  let (), wall =
    if spec.Gen.kind = Gen.Interactive then begin
      let reader = connect () in
      Client.send reader "attach t";
      ignore (Client.switch_reply reader);
      timed (fun () ->
          ignore
            (Client.closed_loop ~writer:c ~reader lines
               ~on_reader:(fun j -> cmds.(j) = Gen.Read)
               ~reply:(fun j r -> ok cmds.(j) r)))
    end
    else
      timed (fun () ->
          ignore
            (Client.pipeline ~window:E2e.window [| (c, lines) |] ~reply:(fun _ j r ->
                 ok cmds.(j) r)))
  in
  Client.kill server;
  E2e.rm_rf "state";
  (wall, !failed)

(* Rrs_prof samples [Gc.counters] at every span boundary, and on OCaml
   5.1.1 a minor collection that lands inside that call can corrupt the
   heap (the traced drive of serve-pipelined at seed 1 crashed this way
   in six runs out of six of one build, and in none of three with the
   call stubbed out).  So the profiled drives run in
   a forked child that only writes files, and a crashed child is retried
   with a larger minor heap, which makes such a collection rarer. *)
let in_child f =
  let rec attempt k =
    flush_all ();
    match Unix.fork () with
    | 0 ->
        if k > 0 then
          Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144 lsl (2 * k) };
        (try f () with _ -> Unix._exit 3);
        Unix._exit 0
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ when k < 3 ->
            Printf.eprintf "the profiled drive crashed (attempt %d); retrying\n%!" (k + 1);
            attempt (k + 1)
        | _ -> failwith "the profiled drive crashed in every attempt")
  in
  attempt 0

type profiled = {
  traced_wall : float;
  reconfigure_s : float;  (** median [Session.reconfigure] call *)
  build : span_total;  (** the index rebuilds those reconfigures caused *)
}

(* The traced drive, then reconfigures of the session it left behind:
   each switches the resource count and steps one round, in which the
   policy rebuilds its ranking index. *)
let profiled spec a cmds ~chrome ~out =
  let prof = Rrs_prof.create () in
  let traced = Rrs_prof.with_profiler prof (fun () -> drive spec a cmds) in
  Rrs_prof.write_chrome prof chrome;
  let s = traced.live in
  let other = if spec.Gen.n_alt <> spec.Gen.n then spec.Gen.n_alt else spec.Gen.n - 4 in
  let prof = Rrs_prof.create () in
  let reconfigure_s =
    Rrs_prof.with_profiler prof (fun () ->
        median_of 25 (fun () ->
            let n = if Session.n s = spec.Gen.n then other else spec.Gen.n in
            let (), t = timed (fun () -> ignore (Result.get_ok (Session.reconfigure s ~n ()))) in
            Session.step s;
            t))
  in
  let build = span_totals (Rrs_prof.to_chrome_string prof) "ranking.index.build" in
  Out_channel.with_open_bin out (fun oc ->
      Marshal.to_channel oc { traced_wall = traced.wall; reconfigure_s; build } [])

let run ~rrs ~seed ~chrome spec =
  let a, cmds = commands spec ~seed in
  let lines = Array.map Gen.cmd_line cmds in
  let rounds = float_of_int (rounds_of cmds) in
  let jobs = float_of_int (Array.fold_left (fun acc c -> acc + E2e.jobs_of c) 0 cmds) in
  (* engine: untraced here, traced in a child *)
  let plain = drive spec a cmds in
  let out = "profiled.bin" in
  in_child (fun () -> profiled spec a cmds ~chrome ~out);
  let p : profiled = In_channel.with_open_bin out Marshal.from_channel in
  Sys.remove out;
  let spans = span_totals (In_channel.with_open_bin chrome In_channel.input_all) in
  let per_round name = (spans name).self /. rounds in
  let s = plain.live in
  let state_s =
    median_of 101 (fun () ->
        snd (timed (fun () -> Snapshot.to_line (Snapshot.of_session ~ops:0 s))))
  in
  (* service: the writer's lines, after the one that sets the delays *)
  let dir = Filename.concat (Sys.getcwd ()) "layers" in
  E2e.rm_rf dir;
  let h = host spec dir in
  let sess, r = replay h "t" ~prelude:[| Gen.delay_line a |] lines in
  let checkpoint_s =
    median_of 21 (fun () -> snd (timed (fun () -> Server.checkpoint_session h sess)))
  in
  Server.abandon_session h sess;
  (* restore *)
  let jpath = Filename.concat dir "sessions/t/journal.jsonl" in
  let load_s = median_of 3 (fun () -> snd (timed (fun () -> Journal.load jpath))) in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let loaded = Journal.load jpath in
  Gc.full_major ();
  let held = (Gc.stat ()).Gc.live_words - live0 in
  ignore (Sys.opaque_identity loaded);
  let open_s =
    median_of 3 (fun () ->
        let h = host spec dir in
        let s, t = timed (fun () -> Server.open_session h "t") in
        Server.abandon_session h s;
        t)
  in
  let bytes = (Unix.stat jpath).Unix.st_size in
  E2e.rm_rf dir;
  (* transport *)
  let wall, failed = socket_pass ~rrs spec a cmds lines in
  let n_lines = float_of_int r.lines in
  let in_process = (r.parse_s +. r.apply_s +. r.commit_s) /. n_lines in
  let us x = 1e6 *. x in
  let ops = float_of_int r.ops in
  let journaled = float_of_int (r.ops + 1) in
  let metrics =
    [
      ("session.step_us", us (plain.step_s /. rounds), "us");
      ("session.feed_us", us (plain.feed_s /. rounds), "us");
      ("engine.drop_us", per_round "engine.drop", "us");
      ("engine.arrival_us", per_round "engine.arrival", "us");
      ("engine.reconfigure_self_us", per_round "engine.reconfigure", "us");
      ("engine.execute_us", per_round "engine.execute", "us");
      ("eligibility.begin_round_us", per_round "eligibility.begin_round", "us");
      ("ranking.query_us", per_round "ranking.query", "us");
      ("alloc_words_per_round", plain.words /. rounds, "words");
      ("major_gcs_per_mjob", float_of_int plain.majors /. (jobs /. 1e6), "count");
      ("prof.overhead_ratio", p.traced_wall /. plain.wall, "ratio");
      ( "ranking.index_build_ms",
        p.build.incl /. 1e3 /. float_of_int (max 1 p.build.count),
        "ms" );
      ("session.reconfigure_us", us p.reconfigure_s, "us");
      ("snapshot.state_us", us state_s, "us");
      ("protocol.parse_ns", 1e9 *. r.parse_s /. n_lines, "ns");
      ("server.apply_us", us (r.apply_s /. n_lines), "us");
      ("server.commit_us", us (r.commit_s /. ops), "us");
      ("checkpoint.commit_us", us checkpoint_s, "us");
      ("journal.bytes_per_op", float_of_int bytes /. journaled, "B");
      ("journal.load_s", load_s, "s");
      ("replay.ops_per_s", journaled /. (open_s -. load_s), "1/s");
      ("restore.heap_mb", float_of_int (held * (Sys.word_size / 8)) /. 1048576., "MB");
      ("transport.us_per_cmd", us ((wall /. float_of_int (Array.length lines)) -. in_process), "us");
    ]
  in
  {
    E2e.metrics;
    attempted = Array.length cmds + r.lines;
    failed;
  }
