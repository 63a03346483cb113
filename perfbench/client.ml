(* The load generator's side of a real [rrs serve --socket] process:
   start and kill the server, and talk to it over at most two Unix
   socket connections. *)

(* Seconds on the monotonic clock, to the nanosecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- the server process ------------------------------------------ *)

type server = { pid : int; mutable alive : bool }

let live : server list ref = ref []

let kill s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

(* No server outlives the bench, whatever way it exits. *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~rrs ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process rrs (Array.of_list (rrs :: "serve" :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  let s = { pid; alive = true } in
  live := s :: List.filter (fun s -> s.alive) !live;
  s

(* Peak resident set, from the kernel's own high-water mark. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.get

let server_peak_mb s = peak_rss_mb (string_of_int s.pid)
let self_peak_mb () = peak_rss_mb "self"

(* ---- connections --------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  ib : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  lines : string Queue.t;  (** complete reply lines not yet taken *)
}

let rec connect ~server ~deadline sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
      { fd; ib = Bytes.create (1 lsl 20); lo = 0; hi = 0; lines = Queue.create () }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] server.pid with
      | 0, _ -> ()
      | _ ->
          server.alive <- false;
          failwith "rrs serve exited before accepting a connection");
      if now () > deadline then failwith "rrs serve did not start listening";
      Unix.sleepf 0.001;
      connect ~server ~deadline sock

let close c = Unix.close c.fd

let send c line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd s off (len - off))
  in
  go 0

(* One read; every complete line it finishes joins [c.lines]. *)
let fill c =
  if c.hi = Bytes.length c.ib then begin
    Bytes.blit c.ib c.lo c.ib 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  let got = Unix.read c.fd c.ib c.hi (Bytes.length c.ib - c.hi) in
  if got = 0 then failwith "rrs serve closed the connection";
  for i = c.hi to c.hi + got - 1 do
    if Bytes.get c.ib i = '\n' then begin
      Queue.push (Bytes.sub_string c.ib c.lo (i - c.lo)) c.lines;
      c.lo <- i + 1
    end
  done;
  c.hi <- c.hi + got

let rec recv c =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None ->
      fill c;
      recv c

let call c line =
  send c line;
  recv c

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [open]/[attach] may answer with warning lines before the final one. *)
let rec switch_reply c =
  let l = recv c in
  if starts_with ~prefix:"ok warning" l then switch_reply c else l

(* ---- pipelined driving ---------------------------------------------- *)

(* Streams every connection's lines with at most [window] commands in
   flight on each, all connections at once, and returns per connection
   each command's reply instant and send-to-reply latency, in seconds.
   [reply i k line] sees the reply to command [k] of connection [i]. *)
let pipeline ~window conns ~reply =
  let k = Array.length conns in
  let next = Array.make k 0 in
  let sent_at = Array.map (fun (_, lines) -> Float.Array.make (Array.length lines) 0.) conns in
  let lat = Array.map (fun (_, lines) -> Float.Array.make (Array.length lines) 0.) conns in
  let acked = Array.make k 0 in
  let remaining () =
    let r = ref false in
    Array.iteri (fun i (_, lines) -> if acked.(i) < Array.length lines then r := true) conns;
    !r
  in
  while remaining () do
    Array.iteri
      (fun i (c, lines) ->
        while next.(i) < Array.length lines && next.(i) - acked.(i) < window do
          Float.Array.set sent_at.(i) next.(i) (now ());
          send c lines.(next.(i));
          next.(i) <- next.(i) + 1
        done)
      conns;
    let waiting =
      List.filter_map
        (fun i -> if acked.(i) < next.(i) then Some (fst conns.(i)).fd else None)
        (List.init k Fun.id)
    in
    let readable, _, _ = Unix.select waiting [] [] 10.0 in
    if readable = [] then failwith "rrs serve stopped replying";
    Array.iteri
      (fun i (c, _) ->
        if List.memq c.fd readable then begin
          fill c;
          let t = now () in
          Queue.iter
            (fun line ->
              let j = acked.(i) in
              Float.Array.set lat.(i) j (t -. Float.Array.get sent_at.(i) j);
              acked.(i) <- j + 1;
              reply i j line)
            c.lines;
          Queue.clear c.lines
        end)
      conns
  done;
  Array.mapi (fun i l -> (Float.Array.map2 ( +. ) sent_at.(i) l, l)) lat

(* ---- closed-loop driving -------------------------------------------- *)

(* Sends [lines] one at a time, line [j] on [reader] when [on_reader j]
   and on [writer] otherwise, each after the previous reply; returns
   each reply's instant and send-to-reply latency, in seconds.
   [reply j line] sees the reply to line [j]. *)
let closed_loop ~writer ~reader lines ~on_reader ~reply =
  let n = Array.length lines in
  let ack = Float.Array.make n 0. and lat = Float.Array.make n 0. in
  Array.iteri
    (fun j line ->
      let t = now () in
      let r = call (if on_reader j then reader else writer) line in
      let t' = now () in
      Float.Array.set ack j t';
      Float.Array.set lat j (t' -. t);
      reply j r)
    lines;
  (ack, lat)
