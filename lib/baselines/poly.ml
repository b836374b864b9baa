type t = float array

let degree c =
  let d = ref (Array.length c - 1) in
  while !d >= 0 && c.(!d) = 0.0 do
    decr d
  done;
  !d

let eval c x =
  let s = ref 0.0 in
  for k = Array.length c - 1 downto 0 do
    s := (!s *. x) +. c.(k)
  done;
  !s

let eval_cx c z =
  let s = ref Linalg.Cx.zero in
  for k = Array.length c - 1 downto 0 do
    s := Linalg.Cx.((!s *: z) +: re c.(k))
  done;
  !s

let derivative c =
  let n = Array.length c in
  if n <= 1 then [| 0.0 |]
  else Array.init (n - 1) (fun k -> float_of_int (k + 1) *. c.(k + 1))

let roots ?(iterations = 400) ?(tol = 1e-12) c =
  let d = degree c in
  if d < 0 then invalid_arg "Poly.roots: zero polynomial";
  if d = 0 then [||]
  else begin
    (* monic normalisation of the significant part *)
    let lead = c.(d) in
    let mc = Array.init (d + 1) (fun k -> c.(k) /. lead) in
    (* scale estimate for initial guesses: Cauchy bound *)
    let bound =
      1.0 +. Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 (Array.sub mc 0 d)
    in
    let z =
      Array.init d (fun k ->
          let theta = ((2.0 *. Float.pi *. float_of_int k) /. float_of_int d) +. 0.4 in
          Linalg.Cx.smul (0.5 *. bound) (Linalg.Cx.make (cos theta) (sin theta)))
    in
    let moved = ref infinity in
    let it = ref 0 in
    while !it < iterations && !moved > tol *. bound do
      moved := 0.0;
      for k = 0 to d - 1 do
        let num = eval_cx mc z.(k) in
        let den = ref Linalg.Cx.one in
        for j = 0 to d - 1 do
          if j <> k then den := Linalg.Cx.(!den *: (z.(k) -: z.(j)))
        done;
        if Linalg.Cx.abs !den > 0.0 then begin
          let delta = Linalg.Cx.(num /: !den) in
          z.(k) <- Linalg.Cx.(z.(k) -: delta);
          moved := Float.max !moved (Linalg.Cx.abs delta)
        end
      done;
      incr it
    done;
    z
  end
