(* A module the linter must stay silent on: the blessed counterparts
   of every bad_*.ml pattern. *)

module Io = Lbrm.Io
module Codec = Lbrm_wire.Codec

let eq (a : int) b = a = b
let keys (h : (string, int) Hashtbl.t) =
  Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort String.compare

(* Hashtbl traversal feeding Io.actions is fine with an intervening
   deterministic sort. *)
let acks (pending : (int, Lbrm_wire.Message.t) Hashtbl.t) : Io.action list =
  Hashtbl.fold (fun seq msg acc -> (seq, msg) :: acc) pending []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (_, msg) -> Io.Send (Io.To_addr 1, msg))

(* So is a traversal handed, sorted, to a call that pushes into an
   Io.out. *)
let cancel_all out seqs =
  List.iter (fun seq -> Io.push out (Io.Cancel_timer (Io.K_deposit seq))) seqs

let stop (retries : (int, unit) Hashtbl.t) out =
  cancel_all out
    (List.sort Int.compare (Hashtbl.fold (fun seq () acc -> seq :: acc) retries []))

let decode_total s =
  match Codec.decode s with Ok m -> Some m | Error _ -> None

let decode_piped s = Result.to_option (Codec.decode s)

let guarded f = try f () with Invalid_argument m -> m
let reraise f = try f () with e -> raise e

(* The raising cores where Codec.Malformed is handled. *)
let decode_in_place r s =
  match Codec.decode_exn r s ~pos:0 ~len:(String.length s) with
  | m -> Some m
  | exception Codec.Malformed _ -> None

let encode_in_place w b m =
  try Codec.encode_at_exn w b ~pos:0 ~limit:(Bytes.length b) m
  with Codec.Malformed _ -> -1
