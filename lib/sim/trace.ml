module Metrics = Lbrm_util.Metrics
module Stats = Lbrm_util.Stats

type t = Metrics.t

let create = Metrics.create
let incr ?(by = 1) t name = Metrics.add (Metrics.counter t name) by
let get = Metrics.count
let observe t name x = Metrics.observe (Metrics.sample t name) x
let sample = Metrics.sample
let counters = Metrics.counters
let samples = Metrics.samples

let pp fmt t =
  List.iter (fun (k, v) -> Format.fprintf fmt "%-32s %d@." k v) (counters t);
  List.iter
    (fun (k, s) ->
      if Stats.Sample.count s > 0 then
        Format.fprintf fmt "%-32s n=%d mean=%.4g p50=%.4g p99=%.4g@." k
          (Stats.Sample.count s) (Stats.Sample.mean s)
          (Stats.Sample.percentile s 50.)
          (Stats.Sample.percentile s 99.))
    (samples t)
