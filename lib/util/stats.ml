type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = t.min
let max t = t.max

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n (mean t)
    (stddev t) t.min t.max

module Sample = struct
  (* At most [cap] values are retained.  When full, every other one is
     dropped and the stride doubles, so the kept values are exactly the
     observations whose index is a multiple of [stride]: an even,
     deterministic thinning.  Count, mean and extrema come from the
     accumulator, which sees every observation. *)
  type nonrec t = {
    acc : t;
    mutable xs : float array;
    mutable len : int;
    mutable stride : int; (* a power of two *)
  }

  let cap = 1 lsl 16
  let create () = { acc = create (); xs = [||]; len = 0; stride = 1 }

  let add t x =
    let index = t.acc.n in
    add t.acc x;
    if index land (t.stride - 1) = 0 then begin
      (* Full: [index] is then [cap * stride], a multiple of the doubled
         stride too, so [x] is kept after thinning. *)
      if t.len = cap then begin
        for i = 0 to (cap / 2) - 1 do
          t.xs.(i) <- t.xs.(2 * i)
        done;
        t.len <- cap / 2;
        t.stride <- 2 * t.stride
      end;
      if t.len = Array.length t.xs then begin
        let xs = Array.make (Stdlib.min cap (Stdlib.max 16 (2 * t.len))) 0. in
        Array.blit t.xs 0 xs 0 t.len;
        t.xs <- xs
      end;
      t.xs.(t.len) <- x;
      t.len <- t.len + 1
    end

  let count t = count t.acc
  let mean t = mean t.acc
  let stddev t = stddev t.acc
  let min t = min t.acc
  let max t = max t.acc
  let values t = Array.sub t.xs 0 t.len

  let percentile t p =
    if t.len = 0 then nan
    else begin
      let sorted = values t in
      Array.sort Float.compare sorted;
      let rank = p /. 100. *. float_of_int (t.len - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      let frac = rank -. floor rank in
      (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
    end

  let median t = percentile t 50.
end

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    assert (bins > 0 && hi > lo);
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let i =
      int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
    in
    let i = Stdlib.max 0 (Stdlib.min (bins - 1) i) in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total

  let pp fmt t =
    let bins = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int bins in
    Array.iteri
      (fun i c ->
        if c > 0 then
          Format.fprintf fmt "[%.3g,%.3g): %d@."
            (t.lo +. (float_of_int i *. width))
            (t.lo +. (float_of_int (i + 1) *. width))
            c)
      t.counts
end
