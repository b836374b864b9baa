(* Random netlists shared by the property tests. *)

module N = Circuit.Netlist

(* [conductors] chains p₀ -R- q₀ -L- p₁ -R- q₁ -L- … -R_term- 0: each
   resistor's node pair reaches ground only through inductors, so Gn
   is singular and node-first elimination breaks down. Capacitors sit
   on some nodes, a chain may start with a grounding inductor, and K
   cards couple random inductor pairs with every inductor in at most
   two cards of |k| ≤ 0.3, so ℒ stays diagonally dominant. *)
let rlck seed =
  let rng = Random.State.make [| seed |] in
  let f lo hi = lo *. ((hi /. lo) ** Random.State.float rng 1.0) in
  let nl = N.create () in
  let conductors = 1 + Random.State.int rng 3 in
  let inductors = ref [] in
  for c = 0 to conductors - 1 do
    let segments = 2 + Random.State.int rng 5 in
    let node k = N.node nl (Printf.sprintf "w%d_%d" c k) in
    if Random.State.bool rng then begin
      let name = Printf.sprintf "Lg%d" c in
      N.add_inductor nl ~name (node 0) 0 (f 1e-10 1e-8);
      inductors := name :: !inductors
    end;
    for s = 0 to segments - 1 do
      N.add_resistor nl (node (2 * s)) (node ((2 * s) + 1)) (f 1e-2 1e2);
      let name = Printf.sprintf "L%d_%d" c s in
      N.add_inductor nl ~name (node ((2 * s) + 1)) (node ((2 * s) + 2)) (f 1e-10 1e-8);
      inductors := name :: !inductors;
      N.add_capacitor nl (node ((2 * s) + 2)) 0 (f 1e-14 1e-12);
      if Random.State.bool rng then N.add_capacitor nl (node ((2 * s) + 1)) 0 (f 1e-14 1e-12)
    done;
    N.add_resistor nl (node (2 * segments)) 0 (f 1.0 1e2);
    N.add_port nl (Printf.sprintf "p%d" c) (node 0)
  done;
  let ls = Array.of_list !inductors in
  let cards = Array.make (Array.length ls) 0 in
  for _ = 1 to Random.State.int rng (2 * Array.length ls) do
    let i = Random.State.int rng (Array.length ls) and j = Random.State.int rng (Array.length ls) in
    if i <> j && cards.(i) < 2 && cards.(j) < 2 then begin
      cards.(i) <- cards.(i) + 1;
      cards.(j) <- cards.(j) + 1;
      let k = (if Random.State.bool rng then 1.0 else -1.0) *. f 0.01 0.3 in
      N.add_mutual nl ls.(i) ls.(j) k
    end
  done;
  nl
