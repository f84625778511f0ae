type heartbeat_policy = Fixed | Variable
type replication = R_primary | R_ring | R_quorum

let replication_label = function
  | R_primary -> "primary"
  | R_ring -> "ring"
  | R_quorum -> "quorum"

let replication_of_string = function
  | "primary" -> Some R_primary
  | "ring" -> Some R_ring
  | "quorum" -> Some R_quorum
  | _ -> None

type t = {
  group : int;
  heartbeat_policy : heartbeat_policy;
  h_min : float;
  h_max : float;
  backoff : float;
  heartbeat_payload_max : int;
  max_it : float;
  nack_delay : float;
  nack_timeout : float;
  nack_retry_limit : int;
  retrans_retry_limit : int;
  rediscovery_silence : float;
  recover_from_start : bool;
  replication : replication;
  deposit_timeout : float;
  deposit_backoff : float;
  deposit_timeout_max : float;
  deposit_retry_limit : int;
  source_retain_max : int;
  remcast_request_threshold : int;
  retention : Log_store.retention;
  stat_ack_enabled : bool;
  k_ackers : int;
  epoch_interval : float;
  t_wait_init : float;
  remcast_site_threshold : float;
  estimate_alpha : float;
  discovery_group : int;
  discovery_max_ttl : int;
  (* retransmission channel (7, first bullet) *)
  rchannel_group : int option;
  (* disk tier *)
  archive_segment_bytes : int;
  archive_index_stride : int;
  archive_lwm_stride : int;
}

let default =
  {
    group = 1;
    heartbeat_policy = Variable;
    h_min = 0.25;
    h_max = 32.;
    backoff = 2.;
    heartbeat_payload_max = 0;
    max_it = 64.;
    nack_delay = 0.01;
    nack_timeout = 0.5;
    nack_retry_limit = 3;
    retrans_retry_limit = 4;
    rediscovery_silence = 128.;
    recover_from_start = true;
    replication = R_primary;
    deposit_timeout = 0.5;
    deposit_backoff = 2.;
    deposit_timeout_max = 4.;
    deposit_retry_limit = 5;
    source_retain_max = 65536;
    remcast_request_threshold = 3;
    retention = Log_store.Keep_all;
    stat_ack_enabled = true;
    k_ackers = 20;
    epoch_interval = 30.;
    t_wait_init = 0.2;
    remcast_site_threshold = 2.;
    estimate_alpha = 0.125;
    discovery_group = 0;
    discovery_max_ttl = 8;
    rchannel_group = None;
    archive_segment_bytes = 262144;
    archive_index_stride = 8;
    archive_lwm_stride = 32;
  }

let fixed_heartbeat t = { t with heartbeat_policy = Fixed }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.h_min <= 0. then err "h_min must be positive (got %g)" t.h_min
  else if t.h_max < t.h_min then err "h_max %g < h_min %g" t.h_max t.h_min
  else if t.backoff <= 1. then err "backoff must exceed 1 (got %g)" t.backoff
  else if t.max_it <= 0. then err "max_it must be positive"
  else if t.k_ackers <= 0 then err "k_ackers must be positive"
  else if t.nack_retry_limit < 0 then err "nack_retry_limit must be >= 0"
  else if t.retrans_retry_limit < 1 then err "retrans_retry_limit must be >= 1"
  else if t.rediscovery_silence <= 0. then
    err "rediscovery_silence must be positive"
  else if t.source_retain_max < 0 then err "source_retain_max must be >= 0"
  else if t.remcast_site_threshold < 0. then
    err "remcast_site_threshold must be >= 0"
  else if t.estimate_alpha <= 0. || t.estimate_alpha > 1. then
    err "estimate_alpha must be in (0,1]"
  else if t.deposit_timeout <= 0. then err "deposit_timeout must be positive"
  else if t.deposit_backoff < 1. then
    err "deposit_backoff must be >= 1 (got %g)" t.deposit_backoff
  else if t.deposit_timeout_max < t.deposit_timeout then
    err "deposit_timeout_max %g < deposit_timeout %g" t.deposit_timeout_max
      t.deposit_timeout
  else if t.archive_segment_bytes < 64 then
    err "archive_segment_bytes must be >= 64 (got %d)" t.archive_segment_bytes
  else if t.archive_index_stride < 1 then
    err "archive_index_stride must be positive"
  else if t.archive_lwm_stride < 1 then err "archive_lwm_stride must be positive"
  else Ok t

(* Retry delay for deposit attempt [attempt] (0-based): exponential
   backoff from [deposit_timeout] capped at [deposit_timeout_max]. *)
let deposit_delay t ~attempt =
  let d = t.deposit_timeout *. (t.deposit_backoff ** float_of_int attempt) in
  if d > t.deposit_timeout_max then t.deposit_timeout_max else d

(* Copies of each packet placed on the retransmission channel (n). *)
let rchannel_copies = 3

let rchannel_window t =
  let rec total k acc =
    if k >= rchannel_copies then acc
    else total (k + 1) (acc +. (t.h_min *. (t.backoff ** float_of_int k)))
  in
  total 0 0.
