(* [Mat] with its accessors restated here: a dev-profile build compiles
   with -opaque, where [Mat.get] cannot inline across the module
   boundary and every call boxes its float *)
module Mat = struct
  include Mat

  let[@inline] get m i j = m.a.((i * m.cols) + j)

  let[@inline] set m i j x = m.a.((i * m.cols) + j) <- x

  let[@inline] add_to m i j x = m.a.((i * m.cols) + j) <- m.a.((i * m.cols) + j) +. x
end

type result = { values : Vec.t; vectors : Mat.t }

let hypot2 a b = Float.hypot a b

(* Householder reduction of a real symmetric matrix to tridiagonal
   form; returns (d, e, z) with z the accumulated orthogonal
   transform: a = z · tridiag(d, e) · zᵀ. Classic tred2. *)
let tred2 a0 =
  let open Mat in
  let n = a0.rows in
  let z = copy a0 in
  let d = Vec.create n and e = Vec.create n in
  for i = n - 1 downto 1 do
    let l = i - 1 in
    let h = ref 0.0 and scale = ref 0.0 in
    if l > 0 then begin
      for k = 0 to l do
        scale := !scale +. Float.abs (get z i k)
      done;
      if !scale = 0.0 then e.(i) <- get z i l
      else begin
        for k = 0 to l do
          set z i k (get z i k /. !scale);
          h := !h +. (get z i k *. get z i k)
        done;
        let f = get z i l in
        let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
        e.(i) <- !scale *. g;
        h := !h -. (f *. g);
        set z i l (f -. g);
        let f_acc = ref 0.0 in
        for j = 0 to l do
          set z j i (get z i j /. !h);
          let g = ref 0.0 in
          for k = 0 to j do
            g := !g +. (get z j k *. get z i k)
          done;
          for k = j + 1 to l do
            g := !g +. (get z k j *. get z i k)
          done;
          e.(j) <- !g /. !h;
          f_acc := !f_acc +. (e.(j) *. get z i j)
        done;
        let hh = !f_acc /. (!h +. !h) in
        for j = 0 to l do
          let f = get z i j in
          e.(j) <- e.(j) -. (hh *. f);
          let g = e.(j) in
          for k = 0 to j do
            add_to z j k (-.((f *. e.(k)) +. (g *. get z i k)))
          done
        done
      end
    end
    else e.(i) <- get z i l;
    d.(i) <- !h
  done;
  d.(0) <- 0.0;
  e.(0) <- 0.0;
  for i = 0 to n - 1 do
    let l = i - 1 in
    if d.(i) <> 0.0 then
      for j = 0 to l do
        let g = ref 0.0 in
        for k = 0 to l do
          g := !g +. (get z i k *. get z k j)
        done;
        for k = 0 to l do
          add_to z k j (-. !g *. get z k i)
        done
      done;
    d.(i) <- get z i i;
    set z i i 1.0;
    for j = 0 to l do
      set z j i 0.0;
      set z i j 0.0
    done
  done;
  (d, e, z)

(* QL with implicit shifts on tridiagonal (d, e); e.(0) unused on
   entry, accumulates the rotations in z. Classic tqli. *)
let tqli d e z =
  let n = Vec.dim d in
  if n = 0 then ()
  else begin
    for i = 1 to n - 1 do
      e.(i - 1) <- e.(i)
    done;
    e.(n - 1) <- 0.0;
    for l = 0 to n - 1 do
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        (* find small subdiagonal to split *)
        let m = ref l in
        (try
           while !m < n - 1 do
             let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
             if Float.abs e.(!m) <= 1e-300 +. (Float.epsilon *. dd) then raise Exit;
             incr m
           done
         with Exit -> ());
        if !m = l then continue_ := false
        else begin
          incr iter;
          if !iter > 50 then failwith "Eig_sym: QL failed to converge";
          let g = (d.(l + 1) -. d.(l)) /. (2.0 *. e.(l)) in
          let r = hypot2 g 1.0 in
          let g =
            d.(!m) -. d.(l)
            +. (e.(l) /. (g +. (if g >= 0.0 then Float.abs r else -.Float.abs r)))
          in
          let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
          let g = ref g in
          (try
             for i = !m - 1 downto l do
               let f = !s *. e.(i) and b = !c *. e.(i) in
               let r = hypot2 f !g in
               e.(i + 1) <- r;
               if r = 0.0 then begin
                 d.(i + 1) <- d.(i + 1) -. !p;
                 e.(!m) <- 0.0;
                 raise Exit
               end;
               s := f /. r;
               c := !g /. r;
               let gg = d.(i + 1) -. !p in
               let rr = ((d.(i) -. gg) *. !s) +. (2.0 *. !c *. b) in
               p := !s *. rr;
               d.(i + 1) <- gg +. !p;
               g := (!c *. rr) -. b;
               (* accumulate rotation in z *)
               for k = 0 to Mat.(z.rows) - 1 do
                 let f = Mat.get z k (i + 1) in
                 Mat.set z k (i + 1) ((!s *. Mat.get z k i) +. (!c *. f));
                 Mat.set z k i ((!c *. Mat.get z k i) -. (!s *. f))
               done
             done;
             d.(l) <- d.(l) -. !p;
             e.(l) <- !g;
             e.(!m) <- 0.0
           with Exit -> ())
        end
      done
    done
  end

let sort_result d z =
  let n = Vec.dim d in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare d.(i) d.(j)) idx;
  let values = Vec.init n (fun i -> d.(idx.(i))) in
  let vectors = Mat.init Mat.(z.rows) n (fun i j -> Mat.get z i idx.(j)) in
  { values; vectors }

let decompose a =
  let d, e, z = tred2 a in
  tqli d e z;
  sort_result d z

let values a = (decompose a).values

let tridiag d0 e0 =
  let n = Vec.dim d0 in
  assert (Vec.dim e0 = n - 1 || (n = 0 && Vec.dim e0 = 0));
  let d = Vec.copy d0 in
  (* tqli expects e.(i) as subdiagonal entry below d.(i-1), shifted at
     start; we pre-shift so that the body's initial shift restores it *)
  let e = Vec.create n in
  for i = 1 to n - 1 do
    e.(i) <- e0.(i - 1)
  done;
  let z = Mat.identity n in
  tqli d e z;
  sort_result d z

let min_eigenvalue a =
  let v = values a in
  if Vec.dim v = 0 then 0.0 else v.(0)
