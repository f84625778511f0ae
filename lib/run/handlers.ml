type address = Lbrm_wire.Message.address

type t = {
  on_message : now:float -> src:address -> Lbrm_wire.Message.t -> Lbrm.Io.out;
  on_timer : now:float -> Lbrm.Io.timer_key -> Lbrm.Io.out;
  on_deliver :
    (now:float ->
    seq:Lbrm_util.Seqno.t ->
    payload:string ->
    recovered:bool ->
    unit)
    option;
  on_notice : (now:float -> Lbrm.Io.notice -> unit) option;
}

let of_source ?on_notice source =
  {
    on_message = Lbrm.Source.handle_message source;
    on_timer = Lbrm.Source.handle_timer source;
    on_deliver = None;
    on_notice;
  }

let of_receiver ?on_deliver ?on_notice receiver =
  {
    on_message = Lbrm.Receiver.handle_message receiver;
    on_timer = Lbrm.Receiver.handle_timer receiver;
    on_deliver;
    on_notice;
  }

let of_logger logger =
  {
    on_message = Lbrm.Logger.handle_message logger;
    on_timer = Lbrm.Logger.handle_timer logger;
    on_deliver = None;
    on_notice = None;
  }
