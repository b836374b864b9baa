(* The Krylov layer's outputs as "%h" hex floats, one matrix row per
   line: SyMPVL's T, Δ and ρ (definite 32×32 and 64×64 RC grids with 16
   and 8 ports — the skyline and the supernodal backend — two
   indefinite RLC nets, and a synthetic J-breakdown that needs a 2×2
   look-ahead cluster, full and windowed), and the reduced matrices of
   PRIMA (single and multi-point) and SPRIM on a small partial-
   inductance bus. golden/krylov.bits holds these lines as the Krylov
   kernels computed them before the fused Gram–Schmidt sweep; the
   sweep must reproduce them bit for bit. *)

module Band_lanczos = Sympvl.Band_lanczos

let mat_lines tag name (m : Linalg.Mat.t) =
  List.init m.Linalg.Mat.rows (fun i ->
      let b = Buffer.create 256 in
      Buffer.add_string b (Printf.sprintf "%s %s %d" tag name i);
      for j = 0 to m.Linalg.Mat.cols - 1 do
        Buffer.add_string b (Printf.sprintf " %h" (Linalg.Mat.get m i j))
      done;
      Buffer.contents b)

let tdr tag ~t_mat ~delta ~rho =
  mat_lines tag "T" t_mat @ mat_lines tag "D" delta @ mat_lines tag "R" rho

let sympvl tag ?(full_ortho = true) ~order m =
  let opts = { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.full_ortho } in
  let md = Sympvl.Reduce.mna ~opts ~order m in
  tdr tag ~t_mat:md.Sympvl.Model.t_mat ~delta:md.Sympvl.Model.delta ~rho:md.Sympvl.Model.rho

(* an exact J-breakdown at v₁ (v₁ᵀJv₁ = 0): the first cluster closes
   only at size 2 *)
let look_ahead tag ~full_ortho seed =
  let n = 12 in
  let rng = Linalg.Rng.create seed in
  let a = Linalg.Mat.random_symmetric rng n in
  let j = Array.init n (fun i -> if i < n / 2 then 1.0 else -1.0) in
  let op v = Linalg.Vec.init n (fun i -> j.(i) *. (Linalg.Mat.mul_vec a v).(i)) in
  let b = Linalg.Mat.create n 1 in
  Linalg.Mat.set b 0 0 1.0;
  Linalg.Mat.set b (n / 2) 0 1.0;
  let res = Band_lanczos.run ~full_ortho ~n_max:8 ~op ~j ~start:b () in
  tdr tag ~t_mat:res.Band_lanczos.t_mat ~delta:res.Band_lanczos.delta
    ~rho:res.Band_lanczos.rho

let real_lines tag (r : Sympvl.Realisation.t) =
  mat_lines tag "a0" r.Sympvl.Realisation.a0
  @ mat_lines tag "a1" r.Sympvl.Realisation.a1
  @ mat_lines tag "b" r.Sympvl.Realisation.b

let lines () =
  let grid = Circuit.Mna.auto (Circuit.Generators.rc_grid ~rows:32 ~cols:32 ()) in
  let grid64 =
    Circuit.Mna.auto (Circuit.Generators.rc_grid ~pitch_pads:16 ~rows:64 ~cols:64 ())
  in
  let rlc = Circuit.Mna.auto (Circuit.Generators.rlc_line ~sections:6 ()) in
  let bus =
    let path =
      List.find_opt Sys.file_exists
        [ "../examples/netlists/coupled_lines.cir"; "examples/netlists/coupled_lines.cir" ]
      |> Option.value ~default:"../examples/netlists/coupled_lines.cir"
    in
    Circuit.Mna.auto (Circuit.Parser.parse_file path)
  in
  let peec =
    Circuit.Mna.auto (Circuit.Generators.peec_partial ~conductors:3 ~segments:8 ())
  in
  let sp = Sympvl.Sprim.reduce ~order:16 peec in
  List.concat
    [
      sympvl "sympvl rc_grid32" ~order:64 grid;
      sympvl "sympvl rc_grid64" ~order:32 grid64;
      sympvl "sympvl rlc_line6" ~order:8 rlc;
      sympvl "sympvl coupled_lines" ~order:8 bus;
      sympvl "sympvl coupled_lines windowed" ~full_ortho:false ~order:8 bus;
      look_ahead "lanczos look-ahead" ~full_ortho:true 31;
      look_ahead "lanczos look-ahead windowed" ~full_ortho:false 32;
      real_lines "prima peec" (Sympvl.Arnoldi.reduce ~order:12 peec);
      real_lines "prima multipoint peec"
        (Sympvl.Arnoldi.reduce_multipoint
           ~points:[ (0.0, 2); (Sympvl.Arnoldi.shift_of_hz peec 1e9, 2) ]
           peec);
      mat_lines "sprim peec" "gn" sp.Sympvl.Sprim.gn;
      mat_lines "sprim peec" "cn" sp.Sympvl.Sprim.cn;
      mat_lines "sprim peec" "a" sp.Sympvl.Sprim.a;
      mat_lines "sprim peec" "l" sp.Sympvl.Sprim.lmat;
      mat_lines "sprim peec" "bn" sp.Sympvl.Sprim.bn;
      real_lines "sprim peec" sp.Sympvl.Sprim.real;
    ]
