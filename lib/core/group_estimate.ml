module Probing = struct
  type phase =
    | Growing
    | Repeating of { estimates : float list; remaining : int }
    | Finished of float

  (* The first probe's reply probability, and its growth per round. *)
  let p0 = 0.01
  let growth = 4.

  type t = {
    target_replies : int;
    repeats : int;
    mutable round : int;
    mutable p : float;
    mutable phase : phase;
  }

  type decision = Probe of { round : int; p : float } | Done of float

  let create ?(target_replies = 10) ?(repeats = 4) () =
    assert (target_replies > 0);
    { target_replies; repeats; round = 0; p = p0; phase = Growing }

  let start t = Probe { round = t.round; p = t.p }

  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

  let round_finished t ~replies =
    match t.phase with
    | Finished e -> Done e
    | Growing ->
        if replies >= t.target_replies || t.p >= 1. then begin
          let est = float_of_int replies /. t.p in
          if t.repeats <= 0 then begin
            t.phase <- Finished est;
            Done est
          end
          else begin
            t.phase <- Repeating { estimates = [ est ]; remaining = t.repeats };
            t.round <- t.round + 1;
            Probe { round = t.round; p = t.p }
          end
        end
        else begin
          t.p <- Float.min 1. (t.p *. growth);
          t.round <- t.round + 1;
          Probe { round = t.round; p = t.p }
        end
    | Repeating { estimates; remaining } ->
        let estimates = (float_of_int replies /. t.p) :: estimates in
        let remaining = remaining - 1 in
        if remaining <= 0 then begin
          let est = mean estimates in
          t.phase <- Finished est;
          Done est
        end
        else begin
          t.phase <- Repeating { estimates; remaining };
          t.round <- t.round + 1;
          Probe { round = t.round; p = t.p }
        end

  let estimate t =
    match t.phase with
    | Finished e -> Some e
    | Repeating { estimates; _ } -> Some (mean estimates)
    | Growing -> None
end

let stddev_single ~n ~p = sqrt (n *. (1. -. p) /. p)

let stddev_after ~n ~p ~probes =
  assert (probes > 0);
  stddev_single ~n ~p /. sqrt (float_of_int probes)

let refine ~alpha ~current ~k' ~p_ack =
  assert (p_ack > 0.);
  ((1. -. alpha) *. current) +. (alpha *. (float_of_int k' /. p_ack))

module Hotlist = struct
  type t = {
    threshold : int;
    counts : (Lbrm_wire.Message.address, int) Hashtbl.t;
  }

  let create ~threshold =
    assert (threshold > 0);
    { threshold; counts = Hashtbl.create 16 }

  let note_unsolicited t addr =
    let c = Option.value ~default:0 (Hashtbl.find_opt t.counts addr) in
    Hashtbl.replace t.counts addr (c + 1)

  let is_ignored t addr =
    match Hashtbl.find_opt t.counts addr with
    | Some c -> c >= t.threshold
    | None -> false

  let ignored t =
    Hashtbl.fold
      (fun a c acc -> if c >= t.threshold then a :: acc else acc)
      t.counts []
    |> List.sort Int.compare

  let decay t =
    let halved =
      Hashtbl.fold (fun a c acc -> (a, c / 2) :: acc) t.counts []
    in
    List.iter
      (fun (a, c) ->
        if c = 0 then Hashtbl.remove t.counts a
        else Hashtbl.replace t.counts a c)
      halved
end
