type counter = { mutable c : int }
type gauge = { mutable g : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Sample of Stats.Sample.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 16 }

(* Lookups go through [Hashtbl.find] so that a hit allocates nothing. *)
let counter t name =
  match Hashtbl.find t.tbl name with
  | Counter c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered otherwise")
  | exception Not_found ->
      let c = { c = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find t.tbl name with
  | Gauge g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered otherwise")
  | exception Not_found ->
      let g = { g = 0. } in
      Hashtbl.replace t.tbl name (Gauge g);
      g

let sample t name =
  match Hashtbl.find t.tbl name with
  | Sample s -> s
  | _ -> invalid_arg ("Metrics.sample: " ^ name ^ " registered otherwise")
  | exception Not_found ->
      let s = Stats.Sample.create () in
      Hashtbl.replace t.tbl name (Sample s);
      s

let[@lint.hot] incr c = c.c <- c.c + 1
let[@lint.hot] add c n = c.c <- c.c + n
let value c = c.c
let set g v = g.g <- v
let read g = g.g
let observe s v = Stats.Sample.add s v

let count t name =
  match Hashtbl.find_opt t.tbl name with Some (Counter c) -> c.c | _ -> 0

let sorted pick t =
  Hashtbl.fold
    (fun name m acc ->
      match pick m with Some v -> (name, v) :: acc | None -> acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters = sorted (function Counter c -> Some c.c | _ -> None)
let samples = sorted (function Sample s -> Some s | _ -> None)

type snapshot_value =
  | V_int of int
  | V_float of float
  | V_summary of { count : int; mean : float; p50 : float; p99 : float; max : float }

let snapshot =
  sorted (fun m ->
      Some
        (match m with
        | Counter c -> V_int c.c
        | Gauge g -> V_float g.g
        | Sample s when Stats.Sample.count s = 0 ->
            V_summary { count = 0; mean = 0.; p50 = 0.; p99 = 0.; max = 0. }
        | Sample s ->
            V_summary
              {
                count = Stats.Sample.count s;
                mean = Stats.Sample.mean s;
                p50 = Stats.Sample.median s;
                p99 = Stats.Sample.percentile s 99.;
                max = Stats.Sample.max s;
              }))

let pp_value ppf = function
  | V_int n -> Format.fprintf ppf "%d" n
  | V_float f -> Format.fprintf ppf "%g" f
  | V_summary { count; mean; p50; p99; max } ->
      Format.fprintf ppf "n=%d mean=%g p50=%g p99=%g max=%g" count mean p50 p99
        max

let pp ppf t =
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%s %a@." name pp_value v)
    (snapshot t)
