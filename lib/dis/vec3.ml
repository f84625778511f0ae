type t = { x : float; y : float; z : float }

let zero = { x = 0.; y = 0.; z = 0. }
let make x y z = { x; y; z }
let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale k v = { x = k *. v.x; y = k *. v.y; z = k *. v.z }
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
let norm v = sqrt (dot v v)
let distance a b = norm (sub a b)

let equal a b = distance a b <= 1e-9

let pp fmt v = Format.fprintf fmt "(%.2f, %.2f, %.2f)" v.x v.y v.z
