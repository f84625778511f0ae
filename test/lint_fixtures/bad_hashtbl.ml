(* Deliberate [hashtbl-order] violation: Io.actions emitted in
   hash-bucket order, no intervening sort. *)

module Io = Lbrm.Io

let acks (pending : (int, Lbrm_wire.Message.t) Hashtbl.t) : Io.action list =
  Hashtbl.fold (fun _ msg acc -> Io.Send (Io.To_addr 1, msg) :: acc) pending []

(* The keys folded into a list, then pushed by a callee that takes the
   buffer: the actions still leave in bucket order. *)
let cancel_all out seqs =
  List.iter (fun seq -> Io.push out (Io.Cancel_timer (Io.K_deposit seq))) seqs

let stop (retries : (int, unit) Hashtbl.t) out =
  cancel_all out (Hashtbl.fold (fun seq () acc -> seq :: acc) retries [])

(* The first case without the alias: the type's path reads
   [Lbrm.Io.action], as it does inside lib/core. *)
let acks_unaliased (pending : (int, Lbrm_wire.Message.t) Hashtbl.t) :
    Lbrm.Io.action list =
  Hashtbl.fold
    (fun _ msg acc -> Lbrm.Io.Send (Lbrm.Io.To_addr 1, msg) :: acc)
    pending []
