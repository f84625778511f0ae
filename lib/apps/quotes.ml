module Codec = Lbrm_wire.Codec
module Rng = Lbrm_util.Rng

type quote = { symbol : string; price : float; timestamp : float }

let encode q =
  let w = Codec.Writer.create () in
  Codec.Writer.bytes w q.symbol;
  Codec.Writer.f64 w q.price;
  Codec.Writer.f64 w q.timestamp;
  Codec.Writer.contents w

let ( let* ) = Result.bind

let decode s =
  let r = Codec.Reader.create s in
  let* symbol = Codec.Reader.bytes r in
  let* price = Codec.Reader.f64 r in
  let* timestamp = Codec.Reader.f64 r in
  match Codec.Reader.remaining r with
  | 0 -> Ok { symbol; price; timestamp }
  | n -> Error (Codec.Trailing n)

let equal a b =
  a.symbol = b.symbol
  && Float.equal a.price b.price
  && Float.equal a.timestamp b.timestamp

let pp fmt q = Format.fprintf fmt "%s=%.2f@%.2f" q.symbol q.price q.timestamp

module Exchange = struct
  type t = {
    rng : Rng.t;
    prices : (string, float) Hashtbl.t;
    symbols : string array;
  }

  let create ~rng ~symbols =
    assert (symbols <> []);
    let prices = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace prices s 100.) symbols;
    { rng; prices; symbols = Array.of_list symbols }

  let tick t ~now =
    let symbol = Rng.pick t.rng t.symbols in
    let old = Option.value ~default:100. (Hashtbl.find_opt t.prices symbol) in
    let price =
      Float.max 0.01 (old *. (1. +. Rng.uniform t.rng ~lo:(-0.01) ~hi:0.01))
    in
    Hashtbl.replace t.prices symbol price;
    { symbol; price; timestamp = now }

  let price t s = Hashtbl.find_opt t.prices s
end

module Terminal = struct
  type t = {
    quotes : (string, quote) Hashtbl.t;
    mutable applied : int;
    mutable dropped : int;
  }

  let create () = { quotes = Hashtbl.create 16; applied = 0; dropped = 0 }

  let on_payload t payload =
    match decode payload with
    | Error _ as e -> e
    | Ok q ->
        (match Hashtbl.find_opt t.quotes q.symbol with
        | Some old when old.timestamp >= q.timestamp ->
            (* A repair for a price that has since moved on: drop. *)
            t.dropped <- t.dropped + 1
        | _ ->
            Hashtbl.replace t.quotes q.symbol q;
            t.applied <- t.applied + 1);
        Ok q

  let quote t s = Hashtbl.find_opt t.quotes s

  let updates_applied t = t.applied
  let superseded_dropped t = t.dropped
end
