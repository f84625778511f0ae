type model = Static | Constant_velocity

let extrapolate model (s : Entity.state) ~at =
  assert (at >= s.timestamp);
  match model with
  | Static -> { s with timestamp = at }
  | Constant_velocity ->
      let dt = at -. s.timestamp in
      {
        s with
        position = Vec3.add s.position (Vec3.scale dt s.velocity);
        timestamp = at;
      }

module Emitter = struct
  type t = {
    model : model;
    threshold : float;
    max_silence : float;
    mutable last : Entity.state;
    mutable sent : int;
  }

  let create ~model ~threshold ?(max_silence = 5.) initial =
    { model; threshold; max_silence; last = initial; sent = 1 }

  let observe t ~truth =
    let predicted = extrapolate t.model t.last ~at:truth.Entity.timestamp in
    let drifted =
      Vec3.distance predicted.position truth.Entity.position > t.threshold
    in
    let appearance_changed = predicted.appearance <> truth.Entity.appearance in
    let stale = truth.Entity.timestamp -. t.last.timestamp >= t.max_silence in
    if drifted || appearance_changed || stale then begin
      t.last <- truth;
      t.sent <- t.sent + 1;
      `Send truth
    end
    else `Quiet

  let updates_sent t = t.sent
end
