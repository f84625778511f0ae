(* The machines' entry points seen through [Io.collect], the list view
   of their action buffers, so unit tests assert on plain lists. *)

module Io = Lbrm.Io

module Source = struct
  include Lbrm.Source

  let start t ~now = Io.collect (start t ~now)
  let send t ~now payload = Io.collect (send t ~now payload)

  let handle_message t ~now ~src msg =
    Io.collect (handle_message t ~now ~src msg)

  let handle_timer t ~now key = Io.collect (handle_timer t ~now key)
end

module Receiver = struct
  include Lbrm.Receiver

  let start t ~now = Io.collect (start t ~now)

  let handle_message t ~now ~src msg =
    Io.collect (handle_message t ~now ~src msg)

  let handle_timer t ~now key = Io.collect (handle_timer t ~now key)
end

module Logger = struct
  include Lbrm.Logger

  let handle_message t ~now ~src msg =
    Io.collect (handle_message t ~now ~src msg)

  let handle_timer t ~now key = Io.collect (handle_timer t ~now key)
end

module Population = struct
  include Lbrm_run.Population

  let start t ~now = Io.collect (start t ~now)

  let handle_message t ~now ~src msg =
    Io.collect (handle_message t ~now ~src msg)

  let handle_timer t ~now key = Io.collect (handle_timer t ~now key)
end

(* Sub-machines push into their embedder's buffer: give each call a
   fresh one. *)
let into f =
  let out = Io.out () in
  f out;
  Io.collect out

let consumed f =
  let out = Io.out () in
  if f out then Some (Io.collect out) else None

module Discovery = struct
  include Lbrm.Discovery

  let start t ~now = into (fun out -> start t out ~now)

  let handle_message t ~now ~src msg =
    consumed (fun out -> handle_message t out ~now ~src msg)

  let handle_timer t ~now key =
    consumed (fun out -> handle_timer t out ~now key)
end

module Pursuit = struct
  include Lbrm.Pursuit

  let open_ t ~now seqs = into (fun out -> open_ t out ~now seqs)
  let handle_timer t ~now key = into (fun out -> handle_timer t out ~now key)
end

(* The source's sub-machines return the event the source acts on, if
   any, alongside the actions. *)
let with_event f =
  let out = Io.out () in
  let ev = f out in
  (Io.collect out, ev)

module Stat_ack = struct
  include Lbrm.Stat_ack

  let start t = into (fun out -> start t out)
  let on_data_sent t ~now seq = into (fun out -> on_data_sent t out ~now seq)
  let on_message t ~now msg = with_event (fun out -> on_message t out ~now msg)
  let on_timer t ~now key = with_event (fun out -> on_timer t out ~now key)
end
