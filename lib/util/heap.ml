(* Binary min-heap tuned for the simulator's schedule-fire hot path.

   Two kinds of entries share one heap:
   - [add] returns a cancellation handle; its node is never recycled
     (the handle aliases the node, so reuse would let a stale handle
     cancel an unrelated entry).
   - [put] returns no handle; its node goes onto a free pool when it
     leaves the heap and is reused by later [put]s, so the steady-state
     schedule-fire pattern allocates nothing.

   Freed backing-array slots are overwritten with a sentinel so the
   array never retains popped values (closures, in the engine's case)
   past [len].  Sifting is hole-based: the moving node is written once
   at its final position instead of swapped at every level. *)

type 'a node = {
  mutable prio : float;
  mutable seq : int; (* tie-break: FIFO among equal priorities *)
  mutable v : 'a;
  mutable index : int; (* -1 when not in the heap *)
  recyclable : bool; (* no handle ever escaped; safe to pool *)
}

type 'a handle = 'a node

let max_pool = 256

type 'a t = {
  mutable arr : 'a node array;
  mutable len : int;
  mutable next_seq : int;
  sentinel : 'a node; (* fills slots >= len and empty pool slots; its
                         [v] is the caller's dummy, also used to blank
                         the payload of pooled nodes *)
  mutable pool : 'a node array; (* free [put] nodes, [0, pool_len) *)
  mutable pool_len : int;
}

let create ~dummy =
  let sentinel =
    { prio = nan; seq = -1; v = dummy; index = -1; recyclable = false }
  in
  { arr = [||]; len = 0; next_seq = 0; sentinel; pool = [||]; pool_len = 0 }

let size t = t.len
let is_empty t = t.len = 0
let value h = h.v
let is_live h = h.index >= 0

let less a b =
  if a.prio < b.prio then true
  else if a.prio > b.prio then false
  else a.seq < b.seq

(* Move the hole at [i] up until [node] fits, then write it once. *)
let rec sift_up t i node =
  if i = 0 then begin
    t.arr.(0) <- node;
    node.index <- 0
  end
  else begin
    let p = (i - 1) / 2 in
    let parent = t.arr.(p) in
    if less node parent then begin
      t.arr.(i) <- parent;
      parent.index <- i;
      sift_up t p node
    end
    else begin
      t.arr.(i) <- node;
      node.index <- i
    end
  end

(* Move the hole at [i] down until [node] fits, then write it once. *)
let rec sift_down t i node =
  let l = (2 * i) + 1 in
  if l >= t.len then begin
    t.arr.(i) <- node;
    node.index <- i
  end
  else begin
    let r = l + 1 in
    let c = if r < t.len && less t.arr.(r) t.arr.(l) then r else l in
    let child = t.arr.(c) in
    if less child node then begin
      t.arr.(i) <- child;
      child.index <- i;
      sift_down t c node
    end
    else begin
      t.arr.(i) <- node;
      node.index <- i
    end
  end

let grow t =
  let cap = Array.length t.arr in
  let arr = Array.make (Stdlib.max 8 (2 * cap)) t.sentinel in
  Array.blit t.arr 0 arr 0 t.len;
  t.arr <- arr

let push t node =
  if t.len = Array.length t.arr then grow t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i node

let add t ~prio v =
  let node = { prio; seq = t.next_seq; v; index = -1; recyclable = false } in
  t.next_seq <- t.next_seq + 1;
  push t node;
  node

let[@lint.hot] put t ~prio v =
  let node =
    if t.pool_len > 0 then begin
      let n = t.pool_len - 1 in
      t.pool_len <- n;
      let node = t.pool.(n) in
      t.pool.(n) <- t.sentinel;
      node.prio <- prio;
      node.seq <- t.next_seq;
      node.v <- v;
      node
    end
    else
      ({ prio; seq = t.next_seq; v; index = -1; recyclable = true }
      [@lint.alloc "node pool empty: fresh node, recycled on pop"])
  in
  t.next_seq <- t.next_seq + 1;
  push t node

(* Return a node that just left the heap to the pool (recyclable nodes
   only).  The payload is blanked either way so the node retains
   nothing. *)
let recycle t node =
  if node.recyclable then begin
    node.v <- t.sentinel.v;
    if t.pool_len < max_pool then begin
      if Array.length t.pool = 0 then t.pool <- Array.make max_pool t.sentinel;
      t.pool.(t.pool_len) <- node;
      t.pool_len <- t.pool_len + 1
    end
  end

let remove_at t i =
  let node = t.arr.(i) in
  let last = t.len - 1 in
  t.len <- last;
  node.index <- -1;
  let moved = t.arr.(last) in
  t.arr.(last) <- t.sentinel;
  if i < last then begin
    sift_down t i moved;
    if moved.index = i then sift_up t i moved
  end;
  node

let pop t =
  if t.len = 0 then None
  else begin
    let node = remove_at t 0 in
    let r = Some (node.prio, node.v) in
    recycle t node;
    r
  end

let pop_exn t =
  if t.len = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let node = remove_at t 0 in
  let v = node.v in
  recycle t node;
  v

let peek t = if t.len = 0 then None else Some (t.arr.(0).prio, t.arr.(0).v)
let min_prio t = if t.len = 0 then infinity else t.arr.(0).prio

let remove t h =
  if h.index < 0 then false
  else begin
    ignore (remove_at t h.index);
    true
  end

(* Same key as [remove] then [add] would give, sifted from where the
   node sits. *)
let[@lint.hot] move t h ~prio =
  let i = h.index in
  if i < 0 then invalid_arg "Heap.move: entry not in the heap";
  h.prio <- prio;
  h.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  sift_down t i h;
  if h.index = i then sift_up t i h
