(* Ports of the classic balanc / elmhes / hqr algorithms (Wilkinson &
   Reinsch; Numerical Recipes presentation), 0-indexed. *)

(* [Mat] with its accessors restated here: a dev-profile build compiles
   with -opaque, where [Mat.get] cannot inline across the module
   boundary and every call boxes its float *)
module Mat = struct
  include Mat

  let[@inline] get m i j = m.a.((i * m.cols) + j)

  let[@inline] set m i j x = m.a.((i * m.cols) + j) <- x

  let[@inline] add_to m i j x = m.a.((i * m.cols) + j) <- m.a.((i * m.cols) + j) +. x
end

let radix = 2.0

let balance a =
  let open Mat in
  let n = a.rows in
  let sqrdx = radix *. radix in
  let last = ref false in
  while not !last do
    last := true;
    for i = 0 to n - 1 do
      let r = ref 0.0 and c = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          c := !c +. Float.abs (get a j i);
          r := !r +. Float.abs (get a i j)
        end
      done;
      if !c <> 0.0 && !r <> 0.0 then begin
        let g = ref (!r /. radix) and f = ref 1.0 in
        let s = !c +. !r in
        while !c < !g do
          f := !f *. radix;
          c := !c *. sqrdx
        done;
        g := !r *. radix;
        while !c > !g do
          f := !f /. radix;
          c := !c /. sqrdx
        done;
        if (!c +. !r) /. !f < 0.95 *. s then begin
          last := false;
          let g = 1.0 /. !f in
          for j = 0 to n - 1 do
            set a i j (get a i j *. g)
          done;
          for j = 0 to n - 1 do
            set a j i (get a j i *. !f)
          done
        end
      end
    done
  done

let hessenberg a =
  let open Mat in
  let n = a.rows in
  for m = 1 to n - 2 do
    let x = ref 0.0 and i = ref m in
    for j = m to n - 1 do
      if Float.abs (get a j (m - 1)) > Float.abs !x then begin
        x := get a j (m - 1);
        i := j
      end
    done;
    if !i <> m then begin
      for j = m - 1 to n - 1 do
        let t = get a !i j in
        set a !i j (get a m j);
        set a m j t
      done;
      for j = 0 to n - 1 do
        let t = get a j !i in
        set a j !i (get a j m);
        set a j m t
      done
    end;
    if !x <> 0.0 then
      for i2 = m + 1 to n - 1 do
        let y = get a i2 (m - 1) in
        if y <> 0.0 then begin
          let y = y /. !x in
          set a i2 (m - 1) y;
          for j = m to n - 1 do
            add_to a i2 j (-.y *. get a m j)
          done;
          for j = 0 to n - 1 do
            add_to a j m (y *. get a j i2)
          done
        end
      done
  done;
  (* zero the entries below the subdiagonal *)
  for i = 2 to n - 1 do
    for j = 0 to i - 2 do
      set a i j 0.0
    done
  done

let sign_of x s = if s >= 0.0 then Float.abs x else -.Float.abs x

let hqr a =
  let open Mat in
  let n = a.rows in
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  let anorm = ref 0.0 in
  for i = 0 to n - 1 do
    for j = max (i - 1) 0 to n - 1 do
      anorm := !anorm +. Float.abs (get a i j)
    done
  done;
  let nn = ref (n - 1) in
  let t = ref 0.0 in
  while !nn >= 0 do
    let its = ref 0 in
    let finished_block = ref false in
    while not !finished_block do
      (* look for a single small subdiagonal element *)
      let l = ref !nn in
      (try
         while !l >= 1 do
           let s = Float.abs (get a (!l - 1) (!l - 1)) +. Float.abs (get a !l !l) in
           let s = if s = 0.0 then !anorm else s in
           if Float.abs (get a !l (!l - 1)) +. s = s then begin
             set a !l (!l - 1) 0.0;
             raise Exit
           end;
           decr l
         done
       with Exit -> ());
      let x = get a !nn !nn in
      if !l = !nn then begin
        (* one real root *)
        wr.(!nn) <- x +. !t;
        wi.(!nn) <- 0.0;
        decr nn;
        finished_block := true
      end
      else begin
        let y = get a (!nn - 1) (!nn - 1) in
        let w = get a !nn (!nn - 1) *. get a (!nn - 1) !nn in
        if !l = !nn - 1 then begin
          (* two roots *)
          let p = 0.5 *. (y -. x) in
          let q = (p *. p) +. w in
          let z = sqrt (Float.abs q) in
          let x = x +. !t in
          if q >= 0.0 then begin
            let z = p +. sign_of z p in
            wr.(!nn - 1) <- x +. z;
            wr.(!nn) <- x +. z;
            if z <> 0.0 then wr.(!nn) <- x -. (w /. z);
            wi.(!nn - 1) <- 0.0;
            wi.(!nn) <- 0.0
          end
          else begin
            wr.(!nn - 1) <- x +. p;
            wr.(!nn) <- x +. p;
            wi.(!nn - 1) <- -.z;
            wi.(!nn) <- z
          end;
          nn := !nn - 2;
          finished_block := true
        end
        else begin
          if !its = 30 then failwith "Eig_gen: too many QR iterations";
          let x = ref x and y = ref y and w = ref w in
          if !its = 10 || !its = 20 then begin
            (* exceptional shift *)
            t := !t +. !x;
            for i = 0 to !nn do
              set a i i (get a i i -. !x)
            done;
            let s =
              Float.abs (get a !nn (!nn - 1)) +. Float.abs (get a (!nn - 1) (!nn - 2))
            in
            x := 0.75 *. s;
            y := !x;
            w := -0.4375 *. s *. s
          end;
          incr its;
          (* form shift and look for two consecutive small subdiagonals *)
          let m = ref (!nn - 2) in
          let p = ref 0.0 and q = ref 0.0 and rr = ref 0.0 in
          (try
             while !m >= !l do
               let z = get a !m !m in
               let r = !x -. z in
               let s = !y -. z in
               p := (((r *. s) -. !w) /. get a (!m + 1) !m) +. get a !m (!m + 1);
               q := get a (!m + 1) (!m + 1) -. z -. r -. s;
               rr := get a (!m + 2) (!m + 1);
               let scale = Float.abs !p +. Float.abs !q +. Float.abs !rr in
               p := !p /. scale;
               q := !q /. scale;
               rr := !rr /. scale;
               if !m = !l then raise Exit;
               let u =
                 Float.abs (get a !m (!m - 1)) *. (Float.abs !q +. Float.abs !rr)
               in
               let v =
                 Float.abs !p
                 *. (Float.abs (get a (!m - 1) (!m - 1))
                    +. Float.abs z
                    +. Float.abs (get a (!m + 1) (!m + 1)))
               in
               if u +. v = v then raise Exit;
               decr m
             done
           with Exit -> ());
          for i = !m + 2 to !nn do
            set a i (i - 2) 0.0;
            if i <> !m + 2 then set a i (i - 3) 0.0
          done;
          (* double QR step on rows l..nn, columns m..nn *)
          let k = ref !m in
          while !k <= !nn - 1 do
            if !k <> !m then begin
              p := get a !k (!k - 1);
              q := get a (!k + 1) (!k - 1);
              rr := if !k <> !nn - 1 then get a (!k + 2) (!k - 1) else 0.0;
              x := Float.abs !p +. Float.abs !q +. Float.abs !rr;
              if !x <> 0.0 then begin
                p := !p /. !x;
                q := !q /. !x;
                rr := !rr /. !x
              end
            end;
            let s = sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!rr *. !rr))) !p in
            if s <> 0.0 then begin
              if !k = !m then begin
                if !l <> !m then set a !k (!k - 1) (-.get a !k (!k - 1))
              end
              else set a !k (!k - 1) (-.s *. !x);
              p := !p +. s;
              x := !p /. s;
              y := !q /. s;
              let z = !rr /. s in
              q := !q /. !p;
              rr := !rr /. !p;
              (* row modification *)
              for j = !k to !nn do
                let pp =
                  get a !k j +. (!q *. get a (!k + 1) j)
                  +. (if !k <> !nn - 1 then !rr *. get a (!k + 2) j else 0.0)
                in
                if !k <> !nn - 1 then add_to a (!k + 2) j (-.pp *. z);
                add_to a (!k + 1) j (-.pp *. !y);
                add_to a !k j (-.pp *. !x)
              done;
              let mmin = if !nn < !k + 3 then !nn else !k + 3 in
              (* column modification *)
              for i = !l to mmin do
                let pp =
                  (!x *. get a i !k) +. (!y *. get a i (!k + 1))
                  +. (if !k <> !nn - 1 then z *. get a i (!k + 2) else 0.0)
                in
                if !k <> !nn - 1 then add_to a i (!k + 2) (-.pp *. !rr);
                add_to a i (!k + 1) (-.pp *. !q);
                add_to a i !k (-.pp)
              done
            end;
            incr k
          done
        end
      end
    done
  done;
  Array.init n (fun i -> { Complex.re = wr.(i); im = wi.(i) })

let eigenvalues a0 =
  let open Mat in
  assert (a0.rows = a0.cols);
  if a0.rows = 0 then [||]
  else begin
    let a = copy a0 in
    balance a;
    hessenberg a;
    hqr a
  end
