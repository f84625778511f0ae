(* Codec cost of a UDP run, estimated rather than timed in place: the
   runtime encodes and decodes inside Udp_runtime, where the benchmark
   cannot put a span.  A traced run copies out a bounded sample of the
   real messages it carried; afterwards each kind's sample is replayed
   through the same entry points the runtime uses (encode_at into a
   slot, decode_bytes in place) and the per-message cost is multiplied
   by the run's per-kind datagram counts. *)

module Codec = Lbrm_wire.Codec
module Message = Lbrm_wire.Message

let per_kind = 16

type sample = { mutable n : int; mutable wires : string list }

let captured : (string, sample) Hashtbl.t = Hashtbl.create 32
let reset () = Hashtbl.reset captured

let note msg =
  let kind = Message.kind msg in
  let bag =
    match Hashtbl.find_opt captured kind with
    | Some b -> b
    | None ->
        let b = { n = 0; wires = [] } in
        Hashtbl.replace captured kind b;
        b
  in
  if bag.n < per_kind then
    match Codec.encode msg with
    | Ok wire ->
        bag.n <- bag.n + 1;
        bag.wires <- wire :: bag.wires
    | Error _ -> ()

(* Seconds per call of [f i], run for at least 5 ms. *)
let per_call f =
  let ops = ref 0 in
  let t0 = Kit.now () in
  while Kit.now () -. t0 < 0.005 do
    for i = 0 to 255 do
      f i
    done;
    ops := !ops + 256
  done;
  (Kit.now () -. t0) /. float_of_int !ops

(* kind -> (encode seconds/message, decode seconds/message) *)
let costs () =
  let region = Bytes.create 65536 in
  Hashtbl.fold
    (fun kind bag acc ->
      let wires = Array.of_list bag.wires in
      let bufs = Array.map Bytes.of_string wires in
      let msgs =
        Array.map
          (fun w ->
            match Codec.decode w with Ok m -> m | Error _ -> assert false)
          wires
      in
      let n = Array.length wires in
      let enc =
        per_call (fun i ->
            ignore
              (Codec.encode_at region ~pos:0 ~limit:65536 msgs.(i mod n)
                : (int, Codec.error) result))
      in
      let dec =
        per_call (fun i ->
            let b = bufs.(i mod n) in
            ignore
              (Codec.decode_bytes ~len:(Bytes.length b) b
                : (Message.t, Codec.error) result))
      in
      (kind, (enc, dec)) :: acc)
    captured []

(* Estimated (encode seconds, decode seconds) for a
   bag of per-kind datagram counts: "sent.<kind>" and "recv.<kind>", as
   the runtime's per-agent registries name them. *)
let estimate counts =
  let costs = costs () in
  let strip prefix name =
    let p = String.length prefix in
    if String.length name > p && String.sub name 0 p = prefix then
      Some (String.sub name p (String.length name - p))
    else None
  in
  let sum prefix pick =
    Hashtbl.fold
      (fun name n s ->
        match
          Option.bind (strip prefix name) (fun k -> List.assoc_opt k costs)
        with
        | Some c -> s +. (float_of_int n *. pick c)
        | None -> s)
      counts 0.
  in
  (sum "sent." fst, sum "recv." snd)
