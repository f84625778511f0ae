(* Fixed-slot free-list pool over a single backing region.  Handles are
   preallocated (one per slot) so the hot lease/release path allocates
   nothing; see buf_pool.mli. *)

type buf = { bytes : Bytes.t; off : int; cap : int; slot : int }

type t = {
  region : Bytes.t;
  slot_size : int;
  nslots : int;
  handles : buf array; (* handles.(i) is slot i's reusable lease record *)
  free : int array; (* stack of free slot indices *)
  mutable free_top : int; (* number of free slots *)
  in_use : bool array; (* double-lease / double-release guard *)
  mutable leases : int;
  mutable fallback_allocs : int;
  mutable double_releases : int;
  mutable max_outstanding : int;
}

let create ?(slots = 256) ?(slot_size = Lbrm_wire.Codec.slot_size) () =
  let nslots = max 1 slots in
  let slot_size = max 64 slot_size in
  let region = Bytes.create (nslots * slot_size) in
  {
    region;
    slot_size;
    nslots;
    handles =
      Array.init nslots (fun i ->
          { bytes = region; off = i * slot_size; cap = slot_size; slot = i });
    (* Popping from the top hands out slot 0 first — deterministic and
       cache-friendly for the common lease-release-lease pattern. *)
    free = Array.init nslots (fun i -> nslots - 1 - i);
    free_top = nslots;
    in_use = Array.make nslots false;
    leases = 0;
    fallback_allocs = 0;
    double_releases = 0;
    max_outstanding = 0;
  }

let region t = t.region
let slot_size t = t.slot_size
let pooled b = b.slot >= 0

let[@lint.hot] lease t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let slot = t.free.(t.free_top) in
    t.in_use.(slot) <- true;
    t.leases <- t.leases + 1;
    let out = t.nslots - t.free_top in
    if out > t.max_outstanding then t.max_outstanding <- out;
    t.handles.(slot)
  end
  else begin
    t.fallback_allocs <- t.fallback_allocs + 1;
    ({ bytes = Bytes.create t.slot_size; off = 0; cap = t.slot_size; slot = -1 }
    [@lint.alloc "pool exhausted: fallback buffer, counted by fallback_allocs"])
  end

let[@lint.hot] release t b =
  if b.slot >= 0 then
    if t.in_use.(b.slot) then begin
      t.in_use.(b.slot) <- false;
      t.free.(t.free_top) <- b.slot;
      t.free_top <- t.free_top + 1
    end
    else t.double_releases <- t.double_releases + 1

let free_count t = t.free_top
let outstanding t = t.nslots - t.free_top
let leases t = t.leases
let fallback_allocs t = t.fallback_allocs
let double_releases t = t.double_releases
let max_outstanding t = t.max_outstanding
