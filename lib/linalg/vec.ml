type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let of_list = Array.of_list

let basis n i =
  let v = create n in
  v.(i) <- 1.0;
  v

let fill v x = Array.fill v 0 (Array.length v) x

let add x y =
  assert (dim x = dim y);
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  assert (dim x = dim y);
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

(* the kernels below check the lengths once, then index unchecked *)
let axpy a x y =
  if dim x <> dim y then invalid_arg "Vec.axpy: length mismatch";
  for i = 0 to dim x - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (a *. Array.unsafe_get x i))
  done

let scale_ip a x =
  for i = 0 to dim x - 1 do
    Array.unsafe_set x i (a *. Array.unsafe_get x i)
  done

let dot x y =
  if dim x <> dim y then invalid_arg "Vec.dot: length mismatch";
  let s = ref 0.0 in
  for i = 0 to dim x - 1 do
    s := !s +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !s

let dot3 x d y =
  if dim x <> dim d || dim d <> dim y then invalid_arg "Vec.dot3: length mismatch";
  let s = ref 0.0 in
  for i = 0 to dim x - 1 do
    s := !s +. (Array.unsafe_get x i *. Array.unsafe_get d i *. Array.unsafe_get y i)
  done;
  !s

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0.0 x

let dist_inf x y =
  assert (dim x = dim y);
  let m = ref 0.0 in
  for i = 0 to dim x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m

let map = Array.map

let max_abs_index x =
  if dim x = 0 then invalid_arg "Vec.max_abs_index: empty vector";
  let best = ref 0 in
  for i = 1 to dim x - 1 do
    if Float.abs x.(i) > Float.abs x.(!best) then best := i
  done;
  !best

let pp ppf v =
  Format.fprintf ppf "@[<hov 1>[%a]@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%.6g" x))
    (Array.to_list v)
