(* [hi] is the highest number seen, or [none] before the first arrival:
   an int, so recording an in-order arrival allocates nothing. *)
type t = { mutable hi : Seqno.t; missing : (Seqno.t, unit) Hashtbl.t }

type verdict =
  | First
  | In_order
  | Fills_gap
  | Duplicate
  | Gap_opened of Seqno.t list

let none = -1
let create () = { hi = none; missing = Hashtbl.create 16 }

(* Called for non-empty gaps only: the in-order path never builds the
   closure. *)
let mark_missing t gap = List.iter (fun s -> Hashtbl.replace t.missing s ()) gap

let note t seq =
  let hi = t.hi in
  if hi = none then begin
    t.hi <- seq;
    First
  end
  else if Seqno.(seq > hi) then begin
    t.hi <- seq;
    match Seqno.range hi seq with
    | [] -> In_order
    | gap ->
        mark_missing t gap;
        Gap_opened gap
  end
  else if Hashtbl.mem t.missing seq then begin
    Hashtbl.remove t.missing seq;
    Fills_gap
  end
  else Duplicate

let note_exists t seq =
  let hi = t.hi in
  if hi = none then begin
    t.hi <- seq;
    Hashtbl.replace t.missing seq ();
    [ seq ]
  end
  else if Seqno.(seq > hi) then begin
    let gap = Seqno.range hi seq @ [ seq ] in
    mark_missing t gap;
    t.hi <- seq;
    gap
  end
  else []

let missing t =
  Hashtbl.fold (fun s () acc -> s :: acc) t.missing []
  |> List.sort Seqno.compare

let missing_count t = Hashtbl.length t.missing
let is_missing t s = Hashtbl.mem t.missing s
let highest t = if t.hi = none then None else Some t.hi

let abandon t s = Hashtbl.remove t.missing s

let forget_below t floor =
  let dropped =
    Hashtbl.fold
      (fun s () acc -> if Seqno.(s < floor) then s :: acc else acc)
      t.missing []
    |> List.sort Seqno.compare
  in
  List.iter (Hashtbl.remove t.missing) dropped;
  dropped

let pp fmt t =
  match highest t with
  | None -> Format.fprintf fmt "<empty>"
  | Some hi ->
      Format.fprintf fmt "highest=%a missing=[%a]" Seqno.pp hi
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.fprintf f ";")
           Seqno.pp)
        (missing t)
