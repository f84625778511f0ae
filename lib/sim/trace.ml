type t = Lbrm_util.Metrics.t

let create = Lbrm_util.Metrics.create
