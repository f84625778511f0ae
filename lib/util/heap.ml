(* Binary min-heap over (prio, seq) keys, [seq] drawn per insertion so
   equal priorities pop FIFO.  Freed backing-array slots are overwritten
   with a sentinel so the array never retains popped values past [len].
   Sifting is hole-based: the moving node is written once at its final
   position instead of swapped at every level. *)

type 'a node = { prio : float; seq : int; v : 'a }

type 'a t = {
  mutable arr : 'a node array;
  mutable len : int;
  mutable next_seq : int;
  sentinel : 'a node; (* fills slots >= len; its [v] is the dummy *)
}

let create ~dummy =
  let sentinel = { prio = nan; seq = -1; v = dummy } in
  { arr = [||]; len = 0; next_seq = 0; sentinel }

let less a b =
  if a.prio < b.prio then true
  else if a.prio > b.prio then false
  else a.seq < b.seq

(* Move the hole at [i] up until [node] fits, then write it once. *)
let rec sift_up t i node =
  if i = 0 then t.arr.(0) <- node
  else begin
    let p = (i - 1) / 2 in
    let parent = t.arr.(p) in
    if less node parent then begin
      t.arr.(i) <- parent;
      sift_up t p node
    end
    else t.arr.(i) <- node
  end

(* Move the hole at [i] down until [node] fits, then write it once. *)
let rec sift_down t i node =
  let l = (2 * i) + 1 in
  if l >= t.len then t.arr.(i) <- node
  else begin
    let r = l + 1 in
    let c = if r < t.len && less t.arr.(r) t.arr.(l) then r else l in
    let child = t.arr.(c) in
    if less child node then begin
      t.arr.(i) <- child;
      sift_down t c node
    end
    else t.arr.(i) <- node
  end

let add t ~prio v =
  if t.len = Array.length t.arr then begin
    let arr = Array.make (Stdlib.max 8 (2 * t.len)) t.sentinel in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i { prio; seq = t.next_seq; v };
  t.next_seq <- t.next_seq + 1

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.arr.(0) in
    let last = t.len - 1 in
    t.len <- last;
    let moved = t.arr.(last) in
    t.arr.(last) <- t.sentinel;
    if last > 0 then sift_down t 0 moved;
    Some (top.prio, top.v)
  end
