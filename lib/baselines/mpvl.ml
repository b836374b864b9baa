type t = { real : Sympvl.Realisation.t; deflations : int }

exception Breakdown of int

(* Two-sided block Lanczos with full biorthogonalisation and
   synchronised deflation (a right/left candidate pair is dropped
   together, keeping the block sizes equal). The matrices G and C of
   this codebase's MNA forms are symmetric, so the transposed
   operator is Aᵀ = C K⁻¹; the algorithm still runs the full
   two-sided process — it merely does not *exploit* the symmetry,
   which is exactly the MPVL-vs-SyMPVL comparison point. *)
let run_lanczos ~dtol ~order ~op ~op_t ~r_start ~l_start =
  let p = r_start.Linalg.Mat.cols in
  let vs = ref [] and ws = ref [] and ds = ref [] in
  let nv = ref 0 in
  let deflations = ref 0 in
  let right = ref (List.init p (fun c -> Linalg.Mat.col r_start c)) in
  let left = ref (List.init p (fun c -> Linalg.Mat.col l_start c)) in
  let biortho_right r =
    List.iteri
      (fun i v ->
        let w = List.nth !ws i and d = List.nth !ds i in
        let coeff = Linalg.Vec.dot w r /. d in
        Linalg.Vec.axpy (-.coeff) v r)
      !vs
  in
  let biortho_left l =
    List.iteri
      (fun i w ->
        let v = List.nth !vs i and d = List.nth !ds i in
        let coeff = Linalg.Vec.dot v l /. d in
        Linalg.Vec.axpy (-.coeff) w l)
      !ws
  in
  (try
     while !nv < order && !right <> [] do
       match (!right, !left) with
       | r :: rrest, l :: lrest ->
         let r0 = Float.max (Linalg.Vec.norm2 r) 1e-300 in
         let l0 = Float.max (Linalg.Vec.norm2 l) 1e-300 in
         biortho_right r;
         biortho_left l;
         let rn = Linalg.Vec.norm2 r and ln = Linalg.Vec.norm2 l in
         right := rrest;
         left := lrest;
         if rn <= dtol *. r0 || ln <= dtol *. l0 then incr deflations
         else begin
           Linalg.Vec.scale_ip (1.0 /. rn) r;
           Linalg.Vec.scale_ip (1.0 /. ln) l;
           let d = Linalg.Vec.dot l r in
           if Float.abs d < 1e-13 then raise (Breakdown (!nv + 1));
           vs := !vs @ [ r ];
           ws := !ws @ [ l ];
           ds := !ds @ [ d ];
           incr nv;
           if !nv < order then begin
             right := !right @ [ op r ];
             left := !left @ [ op_t l ]
           end
         end
       | _, _ -> right := []
     done
   with Exit -> ());
  (Array.of_list !vs, Array.of_list !ws, Array.of_list !ds, !deflations)

let reduce ?band ~order (m : Circuit.Mna.t) =
  let c = m.Circuit.Mna.c in
  (* shift resolution and factorisation via the shared policy — the
     exact same eq. (26) retry as SyMPVL/PRIMA *)
  Sympvl.Pencil.with_auto_shift ?band (Sympvl.Pencil.create m) @@ fun s0 fac ->
  let n_full = m.Circuit.Mna.n in
  let work = Linalg.Vec.create n_full in
  (* K⁻¹b into a fresh vector; [b] is consumed *)
  let solved b =
    let x = Linalg.Vec.create n_full in
    fac.Sympvl.Factor.solve b x;
    x
  in
  let op v =
    Sparse.Csr.mul_vec_into c v work;
    solved work
  in
  let op_t v =
    Array.blit v 0 work 0 n_full;
    Sparse.Csr.mul_vec c (solved work)
  in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let r_start = Linalg.Mat.create n_full p in
  for k = 0 to p - 1 do
    Linalg.Mat.set_col r_start k (solved (Linalg.Mat.col m.Circuit.Mna.b k))
  done;
  let vs, ws, ds, deflations =
    run_lanczos ~dtol:1e-8 ~order ~op ~op_t ~r_start ~l_start:m.Circuit.Mna.b
  in
  let n = Array.length vs in
  if n = 0 then raise (Breakdown 0);
  let v = Linalg.Mat.of_cols (Array.to_list vs) in
  let w = Linalg.Mat.of_cols (Array.to_list ws) in
  (* S = Wᵀ A V, T = D⁻¹S, μ = Wᵀ(K⁻¹B), η = VᵀB *)
  let av = Linalg.Mat.of_cols (List.init n (fun j -> op (Linalg.Mat.col v j))) in
  let s_mat = Linalg.Mat.mul (Linalg.Mat.transpose w) av in
  let t_mat =
    Linalg.Mat.init n n (fun i j -> Linalg.Mat.get s_mat i j /. ds.(i))
  in
  let mu = Linalg.Mat.mul (Linalg.Mat.transpose w) r_start in
  let eta = Linalg.Mat.mul (Linalg.Mat.transpose v) m.Circuit.Mna.b in
  let a0 = Linalg.Mat.identity n in
  let b = Linalg.Mat.init n p (fun i j -> Linalg.Mat.get mu i j /. ds.(i)) in
  let c = Linalg.Mat.transpose eta in
  let real =
    {
      Sympvl.Realisation.a0;
      a1 = t_mat;
      b;
      c;
      origin = s0;
      shift = s0;
      variable = m.Circuit.Mna.variable;
      gain = m.Circuit.Mna.gain;
      sym = None;
      definite = false;
      form = Sympvl.Realisation.general_form ~a0 ~a1:t_mat ~b ~c;
    }
  in
  { real; deflations }
