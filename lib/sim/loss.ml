module Rng = Lbrm_util.Rng

type gilbert_state = {
  loss_good : float;
  loss_bad : float;
  mean_good : float;
  mean_bad : float;
  mutable bad : bool;
  mutable until : float; (* time at which the current sojourn ends *)
  mutable started : bool;
}

type t =
  | None_
  | Bernoulli of float
  | Gilbert of gilbert_state
  | Bursts of (float * float) array
  | Combine of t list

let none = None_
let bernoulli p = Bernoulli p

let gilbert ?(loss_good = 0.) ?(loss_bad = 1.) ~mean_good ~mean_bad () =
  assert (mean_good > 0. && mean_bad > 0.);
  Gilbert
    {
      loss_good;
      loss_bad;
      mean_good;
      mean_bad;
      bad = false;
      until = 0.;
      started = false;
    }

let burst_windows windows =
  let arr = Array.of_list windows in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
  Bursts arr

let combine ts = Combine ts

let gilbert_drops g ~rng ~now =
  if not g.started then begin
    g.started <- true;
    g.until <- Rng.exponential rng ~mean:g.mean_good
  end;
  (* Advance the channel state across all sojourns that ended before now. *)
  while g.until < now do
    g.bad <- not g.bad;
    let mean = if g.bad then g.mean_bad else g.mean_good in
    g.until <- g.until +. Rng.exponential rng ~mean
  done;
  let p = if g.bad then g.loss_bad else g.loss_good in
  Rng.bernoulli rng ~p

let in_burst (arr : (float * float) array) (now : float) =
  (* Binary search for the last window starting at or before now. *)
  let rec bs lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let start, _ = arr.(mid) in
      if start <= now then bs (mid + 1) hi (Some mid) else bs lo (mid - 1) best
  in
  match bs 0 (Array.length arr - 1) None with
  | None -> false
  | Some i ->
      let start, stop = arr.(i) in
      now >= start && now < stop

let rec drops t ~rng ~now =
  match t with
  | None_ -> false
  | Bernoulli p -> Rng.bernoulli rng ~p
  | Gilbert g -> gilbert_drops g ~rng ~now
  | Bursts arr -> in_burst arr now
  | Combine ts -> List.exists (fun m -> drops m ~rng ~now) ts
