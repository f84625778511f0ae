module Message = Lbrm_wire.Message
open Io

type address = Message.address

type state = Idle | Searching of { nonce : int; ttl : int } | Done of address option

type t = { cfg : Config.t; mutable state : state; mutable nonce : int }

let create cfg = { cfg; state = Idle; nonce = 0 }

let result t = match t.state with Done r -> r | Idle | Searching _ -> None
let finished t = match t.state with Done _ -> true | Idle | Searching _ -> false

let query t out ~ttl =
  t.nonce <- t.nonce + 1;
  t.state <- Searching { nonce = t.nonce; ttl };
  Io.push out
    (Io.send ~ttl ~group:t.cfg.discovery_group
       (Message.Discovery_query { nonce = t.nonce }));
  (* Wider rings deserve proportionally longer waits. *)
  Io.push out
    (Set_timer
       (K_discovery t.nonce, t.cfg.discovery_round_timeout *. float_of_int ttl))

let start t out ~now =
  ignore now;
  query t out ~ttl:1

let handle_message t out ~now ~src msg =
  ignore now;
  ignore src;
  match msg with
  | Message.Discovery_reply { nonce; logger } ->
      (match t.state with
      | Searching { nonce = n; _ } when n = nonce ->
          t.state <- Done (Some logger);
          Io.push out (Cancel_timer (K_discovery nonce));
          Io.push out (Notify (N_discovery (Some logger)))
      | Searching _ | Idle | Done _ -> ());
      true
  | _ -> false

let handle_timer t out ~now key =
  ignore now;
  match key with
  | K_discovery nonce ->
      (match t.state with
      | Searching { nonce = n; ttl } when n = nonce ->
          let next_ttl = ttl * 2 in
          if next_ttl > t.cfg.discovery_max_ttl then begin
            t.state <- Done None;
            Io.push out (Notify (N_discovery None))
          end
          else query t out ~ttl:next_ttl
      | Searching _ | Idle | Done _ -> ());
      true
  | _ -> false
