(* Deliberate [decode-totality] violations, lines asserted by
   test_lint.ml. *)

module Codec = Lbrm_wire.Codec

let force s = Result.get_ok (Codec.decode s)
let drop s = ignore (Codec.decode s)

let partial s =
  match Codec.decode s with
  | Ok m -> m
  | Error _ -> assert false

(* The raising cores outside any Malformed handler: bare, handled only
   for an unrelated exception, and in a closure built under a handler
   (it runs later, unprotected). *)
let bare r s = Codec.decode_exn r s ~pos:0 ~len:(String.length s)

let wrong_handler w b m =
  try Codec.encode_at_exn w b ~pos:0 ~limit:8 m with Not_found -> 0

let escaped r s =
  match fun () -> Codec.decode_exn r s ~pos:0 ~len:1 with
  | f -> f
  | exception Codec.Malformed _ -> fun () -> Lbrm_wire.Message.Who_is_primary
