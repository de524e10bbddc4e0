module Guard = Rgleak_num.Guard
module Obs = Rgleak_obs.Obs
module Json = Rgleak_obs.Json
module Cache = Rgleak_cache.Cache
module Batch = Rgleak_cache.Batch

let () = Obs.declare_hist ~owner:"serve" "serve.request_s"

module Sched = struct
  (* Per-client FIFO queues plus a ring of client ids with pending
     work: [next] serves the ring head and re-appends it while it
     still has items, giving round-robin fairness at request
     granularity.  Stale ring entries (from [forget]) are skipped. *)
  type 'a t = {
    queues : (int, 'a Queue.t) Hashtbl.t;
    ring : int Queue.t;
    mutable n : int;
  }

  let create () = { queues = Hashtbl.create 8; ring = Queue.create (); n = 0 }
  let depth t = t.n

  let admit t ~client x =
    let q =
      match Hashtbl.find_opt t.queues client with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues client q;
        Queue.push client t.ring;
        q
    in
    Queue.push x q;
    t.n <- t.n + 1

  let rec next t =
    if Queue.is_empty t.ring then None
    else
      let c = Queue.pop t.ring in
      match Hashtbl.find_opt t.queues c with
      | None -> next t
      | Some q ->
        if Queue.is_empty q then begin
          Hashtbl.remove t.queues c;
          next t
        end
        else begin
          let x = Queue.pop q in
          t.n <- t.n - 1;
          if Queue.is_empty q then Hashtbl.remove t.queues c
          else Queue.push c t.ring;
          Some (c, x)
        end

  let forget t ~client =
    match Hashtbl.find_opt t.queues client with
    | None -> ()
    | Some q ->
      t.n <- t.n - Queue.length q;
      Hashtbl.remove t.queues client
end

type config = {
  socket_path : string;
  max_queue : int;
  shed_threshold : int option;
  cache : Cache.t option;
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  inbuf : Buffer.t;
  mutable out : string;  (* response bytes not yet written *)
  mutable eof : bool;  (* peer write side closed; flush then close *)
  mutable dead : bool;  (* write failed; discard connection and queue *)
  mutable pending : int;  (* admitted requests not yet answered *)
}

type item = { i_conn : conn; i_scens : Batch.scenario list }

type server = {
  cfg : config;
  listen_fd : Unix.file_descr;
  sched : item Sched.t;
  started : float;
  mutable conns : conn list;
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable stop_req : bool;
  mutable next_cid : int;
  mutable n_requests : int;
  mutable n_sheds : int;
  mutable n_rejected : int;
  mutable n_errors : int;
}

let send_response c resp =
  if not c.dead then c.out <- c.out ^ Protocol.encode_response resp

let mark_dead srv c =
  if not c.dead then begin
    c.dead <- true;
    Sched.forget srv.sched ~client:c.cid
  end

(* ---------- request execution ---------- *)

let is_sheddable = function Batch.Exact | Batch.Mc -> true | _ -> false

let degrade_record requested o =
  match o.Batch.o_json with
  | Json.Obj fields ->
    {
      o with
      Batch.o_json =
        Json.Obj
          (fields
          @ [
              ("degraded", Json.Bool true);
              ("requested_tier", Json.Str (Batch.tier_name requested));
            ]);
    }
  | _ -> o

let run_item srv ~shed item =
  Obs.span "serve.request" @@ fun () ->
  Obs.hist_time "serve.request_s" @@ fun () ->
  let engine = Batch.engine ?cache:srv.cfg.cache () in
  let outcomes =
    List.map
      (fun scen ->
        if shed && is_sheddable scen.Batch.s_tier then begin
          srv.n_sheds <- srv.n_sheds + 1;
          Obs.count "serve.sheds" 1;
          degrade_record scen.Batch.s_tier
            (Batch.run_one engine { scen with Batch.s_tier = Batch.Integral_2d })
        end
        else Batch.run_one engine scen)
      item.i_scens
  in
  let payload =
    String.concat ""
      (List.map (fun o -> Json.to_string o.Batch.o_json ^ "\n") outcomes)
  in
  (payload, Batch.exit_code outcomes)

let exec_one srv =
  match Sched.next srv.sched with
  | None -> ()
  | Some (_, item) ->
    let c = item.i_conn in
    c.pending <- c.pending - 1;
    if not c.dead then begin
      srv.n_requests <- srv.n_requests + 1;
      Obs.count "serve.requests" 1;
      let shed =
        match srv.cfg.shed_threshold with
        | Some th -> Sched.depth srv.sched >= th
        | None -> false
      in
      let resp =
        match Guard.protect (fun () -> run_item srv ~shed item) with
        | Ok (payload, code) -> { Protocol.status = Protocol.Ok; code; payload }
        | Error d ->
          srv.n_errors <- srv.n_errors + 1;
          {
            Protocol.status = Protocol.Error;
            code = Guard.exit_code d;
            payload = Guard.to_string d ^ "\n";
          }
      in
      send_response c resp
    end

(* ---------- stats ---------- *)

let stats_json srv =
  let snap = Obs.snapshot () in
  let q p =
    match List.assoc_opt "serve.request_s" snap.Obs.hists with
    | Some h when h.Obs.h_count > 0 -> Obs.hist_quantile h p
    | _ -> 0.0
  in
  let uptime = Unix.gettimeofday () -. srv.started in
  let num n = Json.Num (float_of_int n) in
  let cache_obj =
    match srv.cfg.cache with
    | None -> Json.Obj [ ("enabled", Json.Bool false) ]
    | Some c ->
      let s = Cache.stats c in
      let looked = s.Cache.hits + s.Cache.misses in
      Json.Obj
        [
          ("enabled", Json.Bool true);
          ("hits", num s.Cache.hits);
          ("misses", num s.Cache.misses);
          ( "hit_rate",
            Json.Num
              (if looked = 0 then 0.0
               else float_of_int s.Cache.hits /. float_of_int looked) );
          ("evictions", num s.Cache.evictions);
          ("bytes_evicted", num s.Cache.bytes_evicted);
          ("bytes", num (Cache.total_bytes c));
        ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "rgleak-serve-stats/1");
         ("uptime_s", Json.Num uptime);
         ("requests", num srv.n_requests);
         ( "qps",
           Json.Num
             (if uptime > 0.0 then float_of_int srv.n_requests /. uptime
              else 0.0) );
         ("latency_p50_s", Json.Num (q 0.5));
         ("latency_p99_s", Json.Num (q 0.99));
         ("queue_depth", num (Sched.depth srv.sched));
         ("clients", num (List.length srv.conns));
         ("sheds", num srv.n_sheds);
         ("rejected", num srv.n_rejected);
         ("errors", num srv.n_errors);
         ("cache", cache_obj);
       ])
  ^ "\n"

(* ---------- frame handling ---------- *)

let handle_request srv c (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Ping ->
    send_response c { Protocol.status = Protocol.Ok; code = 0; payload = "" }
  | Protocol.Stats ->
    send_response c
      { Protocol.status = Protocol.Ok; code = 0; payload = stats_json srv }
  | Protocol.Shutdown ->
    send_response c { Protocol.status = Protocol.Ok; code = 0; payload = "" };
    srv.stop_req <- true
  | Protocol.Estimate -> (
    match Guard.protect (fun () -> Batch.parse_manifest req.Protocol.body) with
    | Error d ->
      srv.n_errors <- srv.n_errors + 1;
      send_response c
        {
          Protocol.status = Protocol.Error;
          code = Guard.exit_code d;
          payload = Guard.to_string d ^ "\n";
        }
    | Ok scens ->
      if Sched.depth srv.sched >= srv.cfg.max_queue then begin
        srv.n_rejected <- srv.n_rejected + 1;
        Obs.count "serve.rejected" 1;
        send_response c
          {
            Protocol.status = Protocol.Error;
            code = 5;
            payload =
              Printf.sprintf "server overloaded: queue full (max %d)\n"
                srv.cfg.max_queue;
          }
      end
      else begin
        Sched.admit srv.sched ~client:c.cid { i_conn = c; i_scens = scens };
        c.pending <- c.pending + 1;
        Obs.track "serve.queue_depth" (float_of_int (Sched.depth srv.sched))
      end)

let rec drain_frames srv c =
  if not c.dead then begin
    let buf = Buffer.contents c.inbuf in
    match Protocol.decode_request buf with
    | Protocol.Need_more -> ()
    | Protocol.Bad reason ->
      srv.n_errors <- srv.n_errors + 1;
      send_response c
        {
          Protocol.status = Protocol.Error;
          code = 2;
          payload = "protocol error: " ^ reason ^ "\n";
        };
      (* The stream cannot be resynchronized: stop reading, flush the
         diagnostic, then close. *)
      c.eof <- true;
      Buffer.clear c.inbuf
    | Protocol.Got (req, consumed) ->
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf buf consumed (String.length buf - consumed);
      handle_request srv c req;
      drain_frames srv c
  end

(* ---------- event loop ---------- *)

let read_chunk = Bytes.create 65536

let read_conn srv c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> mark_dead srv c
  | 0 ->
    c.eof <- true;
    drain_frames srv c
  | n ->
    Buffer.add_subbytes c.inbuf read_chunk 0 n;
    drain_frames srv c

let flush_conn srv c =
  match Unix.write_substring c.fd c.out 0 (String.length c.out) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> mark_dead srv c
  | n -> c.out <- String.sub c.out n (String.length c.out - n)

let rec accept_loop srv =
  match Unix.accept srv.listen_fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
    Unix.set_nonblock fd;
    srv.next_cid <- srv.next_cid + 1;
    srv.conns <-
      {
        fd;
        cid = srv.next_cid;
        inbuf = Buffer.create 256;
        out = "";
        eof = false;
        dead = false;
        pending = 0;
      }
      :: srv.conns;
    accept_loop srv

let bind_socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.set_nonblock fd;
     Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Guard.invalid
       (Printf.sprintf "cannot bind socket %s: %s%s" path
          (Unix.error_message e)
          (if e = Unix.EADDRINUSE then
             " (another daemon running, or a stale socket file)"
           else "")));
  Unix.listen fd 64;
  fd

let drain_grace_s = 10.0

let run ?(on_listen = fun () -> ()) cfg =
  if not (Obs.enabled ()) then Obs.set_enabled true;
  let listen_fd = bind_socket cfg.socket_path in
  on_listen ();
  let srv =
    {
      cfg;
      listen_fd;
      sched = Sched.create ();
      started = Unix.gettimeofday ();
      conns = [];
      draining = false;
      drain_deadline = infinity;
      stop_req = false;
      next_cid = 0;
      n_requests = 0;
      n_sheds = 0;
      n_rejected = 0;
      n_errors = 0;
    }
  in
  (* Warm the shared pool before the first request arrives. *)
  ignore (Rgleak_num.Parallel.default ());
  let stop = ref false in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigpipe prev_pipe;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        srv.conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
  @@ fun () ->
  let finished () =
    srv.draining
    && (Sched.depth srv.sched = 0
        && List.for_all (fun c -> c.out = "" || c.dead) srv.conns
       || Unix.gettimeofday () > srv.drain_deadline)
  in
  while not (finished ()) do
    if (!stop || srv.stop_req) && not srv.draining then begin
      srv.draining <- true;
      srv.drain_deadline <- Unix.gettimeofday () +. drain_grace_s
    end;
    (* Reap finished and vanished connections. *)
    srv.conns <-
      List.filter
        (fun c ->
          if c.dead || (c.eof && c.pending = 0 && c.out = "") then begin
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            false
          end
          else true)
        srv.conns;
    let rds =
      if srv.draining then []
      else
        listen_fd
        :: List.filter_map
             (fun c -> if c.eof || c.dead then None else Some c.fd)
             srv.conns
    in
    let wrs =
      List.filter_map
        (fun c -> if c.out <> "" && not c.dead then Some c.fd else None)
        srv.conns
    in
    let timeout = if Sched.depth srv.sched > 0 then 0.0 else 0.25 in
    let rd_ready, wr_ready, _ =
      try Unix.select rds wrs [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq listen_fd rd_ready then accept_loop srv;
    List.iter
      (fun c ->
        if (not c.eof) && (not c.dead) && List.memq c.fd rd_ready then
          read_conn srv c)
      srv.conns;
    List.iter
      (fun c ->
        if c.out <> "" && (not c.dead) && List.memq c.fd wr_ready then
          flush_conn srv c)
      srv.conns;
    (* One admitted request per iteration keeps the socket responsive
       while long tiers run between I/O rounds. *)
    exec_one srv
  done
