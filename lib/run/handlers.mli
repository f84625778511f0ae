(** Uniform agent interface consumed by the runtimes.

    A runtime hosts many {e agents} (sources, receivers, loggers,
    application endpoints).  Each agent exposes the sans-IO entry points
    as plain closures plus optional application callbacks, so runtimes
    need not know which role they are driving.  [on_message] and
    [on_timer] do the machine's whole work and return its action buffer
    (see {!Lbrm.Io.out}); the host drains it. *)

type address = Lbrm_wire.Message.address

type t = {
  on_message : now:float -> src:address -> Lbrm_wire.Message.t -> Lbrm.Io.out;
  on_timer : now:float -> Lbrm.Io.timer_key -> Lbrm.Io.out;
  on_deliver :
    (now:float -> seq:Lbrm_util.Seqno.t -> payload:string -> recovered:bool -> unit)
    option;
  on_notice : (now:float -> Lbrm.Io.notice -> unit) option;
}

val of_source :
  ?on_notice:(now:float -> Lbrm.Io.notice -> unit) -> Lbrm.Source.t -> t
val of_receiver :
  ?on_deliver:
    (now:float -> seq:Lbrm_util.Seqno.t -> payload:string -> recovered:bool -> unit) ->
  ?on_notice:(now:float -> Lbrm.Io.notice -> unit) ->
  Lbrm.Receiver.t ->
  t
val of_logger : Lbrm.Logger.t -> t
