(* Left-looking supernodal sparse LDLᵀ.

   Columns with nested factor structure (fundamental supernodes) are
   grouped into dense row-major panels; the numeric phase then runs on
   contiguous float arrays with dot-product inner kernels instead of
   per-entry index chasing. The skyline envelope kernel remains the
   accuracy oracle — this module is the scattered-sparsity
   (AMD-ordered) backend.

   Input matrices are expected already permuted by a fill-reducing
   ordering composed with an elimination-tree postorder ({!order}
   builds one); the postorder is what makes every fundamental
   supernode a contiguous column range. *)

exception Singular of int

let width_cap = 128

type symbolic = {
  sy_n : int;
  sy_nsuper : int;
  sy_start : int array; (* length nsuper+1; supernode s spans columns
                           [sy_start.(s), sy_start.(s+1)) *)
  sy_colsn : int array; (* column -> supernode *)
  sy_rows : int array array;
      (* per supernode: sorted panel row indices; the first w entries
         are the supernode's own columns, the rest the below rows *)
  sy_g : float array array; (* G pre-scattered into row-major len×w panels *)
  sy_c : float array array; (* C, same layout; empty panels without C *)
  sy_has_c : bool;
  sy_nnz : int; (* stored lower-triangle nnz, diagonal included *)
  sy_maxw : int;
}

let structural_union (g : Csr.t) c extra =
  let tr = Triplet.create g.Csr.rows g.Csr.cols in
  let add (m : Csr.t) =
    for i = 0 to m.Csr.rows - 1 do
      for k = m.Csr.row_ptr.(i) to m.Csr.row_ptr.(i + 1) - 1 do
        Triplet.add tr i m.Csr.col_idx.(k) 1.0
      done
    done
  in
  add g;
  (match c with Some cm -> add cm | None -> ());
  (match extra with
  | Some positions -> Array.iter (fun (i, j) -> Triplet.add_sym tr i j 1.0) positions
  | None -> ());
  Csr.of_triplet tr

let merged_pattern ?extra g c =
  match (c, extra) with None, None -> g | _ -> structural_union g c extra

(* Stable deferral of [p1] (new -> old): indices outside [deferred] keep
   their relative order; each index [v] in it moves, if it must, to just
   after the last index [u] outside it whose row of [pat] holds [v]. *)
let defer (pat : Csr.t) deferred p1 =
  let n = Array.length p1 in
  let pending = Array.make n 0 in
  for u = 0 to n - 1 do
    if not (deferred u) then
      Csr.iter_row pat u (fun v _ -> if deferred v then pending.(v) <- pending.(v) + 1)
  done;
  let reached = Array.make n false in
  let out = Array.make n 0 and k = ref 0 in
  let emit v =
    out.(!k) <- v;
    incr k
  in
  Array.iter
    (fun v ->
      if not (deferred v) then begin
        emit v;
        Csr.iter_row pat v (fun u _ ->
            if deferred u then begin
              pending.(u) <- pending.(u) - 1;
              if pending.(u) = 0 && reached.(u) then emit u
            end)
      end
      else begin
        reached.(v) <- true;
        if pending.(v) = 0 then emit v
      end)
    p1;
  out

let order ?c ?late ?early g =
  let pat = merged_pattern g c in
  let p1 = Amd.order pat in
  let p1 =
    match (late, early) with
    | None, None -> p1
    | Some late, None -> defer pat (fun v -> v >= late) p1
    | None, Some early -> defer pat (fun v -> v < early) p1
    | Some _, Some _ -> invalid_arg "Supernodal.order: ~late and ~early are exclusive"
  in
  let post = Etree.postorder (Etree.of_pattern (Csr.permute_sym pat p1)) in
  Array.map (fun k -> p1.(k)) post

let symbolic ?extra_pattern ?c g =
  let n = g.Csr.rows in
  if g.Csr.cols <> n then invalid_arg "Supernodal.symbolic: square matrix expected";
  (match c with
  | Some cm ->
    if cm.Csr.rows <> n || cm.Csr.cols <> n then
      invalid_arg "Supernodal.symbolic: G/C dimension mismatch"
  | None -> ());
  let has_c = Option.is_some c in
  if n = 0 then
    {
      sy_n = 0;
      sy_nsuper = 0;
      sy_start = [| 0 |];
      sy_colsn = [||];
      sy_rows = [||];
      sy_g = [||];
      sy_c = [||];
      sy_has_c = has_c;
      sy_nnz = 0;
      sy_maxw = 0;
    }
  else begin
    let pat = merged_pattern ?extra:extra_pattern g c in
    let et = Etree.of_pattern pat in
    let parent = et.Etree.parent and cc = et.Etree.col_counts in
    (* supernode boundaries: column j joins the running supernode when
       it continues an elimination-tree chain with exactly nested
       structure (the fundamental rule), up to the width cap *)
    let starts = Array.make (n + 1) 0 in
    let nsuper = ref 1 in
    let start = ref 0 in
    for j = 1 to n - 1 do
      let nested = parent.(j - 1) = j && cc.(j) + 1 = cc.(j - 1) in
      if not (nested && j - !start < width_cap) then begin
        starts.(!nsuper) <- j;
        incr nsuper;
        start := j
      end
    done;
    let ns = !nsuper in
    let sy_start = Array.make (ns + 1) n in
    Array.blit starts 0 sy_start 0 ns;
    let colsn = Array.make n 0 in
    for s = 0 to ns - 1 do
      for j = sy_start.(s) to sy_start.(s + 1) - 1 do
        colsn.(j) <- s
      done
    done;
    (* child supernodes: t is a child of the supernode owning the
       elimination-tree parent of t's last column *)
    let child_head = Array.make ns (-1) in
    let child_next = Array.make ns (-1) in
    for t = 0 to ns - 1 do
      let p = parent.(sy_start.(t + 1) - 1) in
      if p <> -1 then begin
        let s = colsn.(p) in
        child_next.(t) <- child_head.(s);
        child_head.(s) <- t
      end
    done;
    (* panel patterns: own columns ∪ stored entries below the diagonal
       ∪ the below rows of every child supernode (symbolic
       factorisation by supernode-wise row merging) *)
    let rows = Array.make ns [||] in
    let mark = Array.make n (-1) in
    let scratch = Array.make n 0 in
    for s = 0 to ns - 1 do
      let st = sy_start.(s) and en = sy_start.(s + 1) in
      let cnt = ref 0 in
      for j = st to en - 1 do
        mark.(j) <- s;
        scratch.(!cnt) <- j;
        incr cnt
      done;
      for j = st to en - 1 do
        for k = pat.Csr.row_ptr.(j) to pat.Csr.row_ptr.(j + 1) - 1 do
          let i = pat.Csr.col_idx.(k) in
          if i > j && mark.(i) <> s then begin
            mark.(i) <- s;
            scratch.(!cnt) <- i;
            incr cnt
          end
        done
      done;
      let t = ref child_head.(s) in
      while !t <> -1 do
        let rt = rows.(!t) in
        let wt = sy_start.(!t + 1) - sy_start.(!t) in
        for k = wt to Array.length rt - 1 do
          let i = rt.(k) in
          if mark.(i) <> s then begin
            mark.(i) <- s;
            scratch.(!cnt) <- i;
            incr cnt
          end
        done;
        t := child_next.(!t)
      done;
      let r = Array.sub scratch 0 !cnt in
      Array.sort Int.compare r;
      rows.(s) <- r
    done;
    let nnz = ref 0 and maxw = ref 0 in
    for s = 0 to ns - 1 do
      let w = sy_start.(s + 1) - sy_start.(s) in
      let len = Array.length rows.(s) in
      nnz := !nnz + (w * len) - (w * (w - 1) / 2);
      if w > !maxw then maxw := w
    done;
    (* pre-scatter G and C into panel slots so every numeric
       factorisation of G + s₀C is free of pattern analysis *)
    let pos = Array.make n 0 in
    let gpan = Array.make ns [||] in
    let cpan = Array.make ns [||] in
    let scatter (m : Csr.t) s panel =
      let st = sy_start.(s) and en = sy_start.(s + 1) in
      let w = en - st in
      for j = st to en - 1 do
        let cl = j - st in
        for k = m.Csr.row_ptr.(j) to m.Csr.row_ptr.(j + 1) - 1 do
          let i = m.Csr.col_idx.(k) in
          if i >= j then begin
            let slot = (pos.(i) * w) + cl in
            panel.(slot) <- panel.(slot) +. m.Csr.values.(k)
          end
        done
      done
    in
    for s = 0 to ns - 1 do
      let r = rows.(s) in
      let len = Array.length r in
      let w = sy_start.(s + 1) - sy_start.(s) in
      for k = 0 to len - 1 do
        pos.(r.(k)) <- k
      done;
      let gp = Array.make (len * w) 0.0 in
      scatter g s gp;
      gpan.(s) <- gp;
      match c with
      | Some cm ->
        let cp = Array.make (len * w) 0.0 in
        scatter cm s cp;
        cpan.(s) <- cp
      | None -> ()
    done;
    {
      sy_n = n;
      sy_nsuper = ns;
      sy_start;
      sy_colsn = colsn;
      sy_rows = rows;
      sy_g = gpan;
      sy_c = cpan;
      sy_has_c = has_c;
      sy_nnz = !nnz;
      sy_maxw = !maxw;
    }
  end

let nnz sym = sym.sy_nnz
let supernodes sym = sym.sy_nsuper
let dim sym = sym.sy_n

(* The elimination-tree reach of a set of rows: every column on an
   etree path from one of them to its root. Inside a supernode the
   parent of column j is j + 1, and the parent of its last column is
   the panel's first below row, so the reach is a suffix of every
   supernode it meets and one first local column describes it. *)
type reach = {
  r_sym : symbolic; (* the phase the reach was built on, checked on use *)
  r_first : int array; (* per supernode: first local column in the reach, w if none *)
  r_pos : int array; (* column -> compact index (ascending columns), -1 outside *)
  r_cols : int array; (* compact index -> column *)
}

let reach sym rows =
  let n = sym.sy_n and ns = sym.sy_nsuper in
  let parent j =
    let s = sym.sy_colsn.(j) in
    let st = sym.sy_start.(s) and en = sym.sy_start.(s + 1) in
    if j + 1 < en then j + 1
    else
      let rs = sym.sy_rows.(s) in
      if en - st < Array.length rs then rs.(en - st) else -1
  in
  let pos = Array.make n (-1) in
  Array.iter
    (fun r ->
      if r < 0 || r >= n then invalid_arg "Supernodal.reach: row out of range";
      (* stop at the first column already in: its ancestors are too *)
      let j = ref r in
      while !j >= 0 && pos.(!j) < 0 do
        pos.(!j) <- 0;
        j := parent !j
      done)
    rows;
  let first = Array.init ns (fun s -> sym.sy_start.(s + 1) - sym.sy_start.(s)) in
  let cols = ref [] in
  for j = n - 1 downto 0 do
    if pos.(j) >= 0 then begin
      cols := j :: !cols;
      let s = sym.sy_colsn.(j) in
      first.(s) <- j - sym.sy_start.(s)
    end
  done;
  let cols = Array.of_list !cols in
  Array.iteri (fun q j -> pos.(j) <- q) cols;
  { r_sym = sym; r_first = first; r_pos = pos; r_cols = cols }

let reach_columns r = Array.copy r.r_cols

let bsearch (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < x then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let stamp_extra sym (pan : float array array) entries =
  Array.iter
    (fun (i, j, v) ->
      let r = if i >= j then i else j in
      let cgl = if i >= j then j else i in
      if r < 0 || r >= sym.sy_n then invalid_arg "Supernodal: extra entry out of range";
      let s = sym.sy_colsn.(cgl) in
      let st = sym.sy_start.(s) in
      let w = sym.sy_start.(s + 1) - st in
      let k = bsearch sym.sy_rows.(s) r in
      if k < 0 then invalid_arg "Supernodal: extra entry outside the factor pattern";
      let p = pan.(s) in
      let slot = (k * w) + (cgl - st) in
      p.(slot) <- p.(slot) +. v)
    entries

module Real = struct
  type t = { sym : symbolic; pan : float array array; d : float array }

  let factor ?(pivot_tol = 1e-14) ?extra sym s0 =
    let n = sym.sy_n in
    let ns = sym.sy_nsuper in
    (* numeric assembly: panels = G + s₀C, straight axpy over the
       pre-scattered symbolic panels *)
    let pan = Array.make ns [||] in
    for s = 0 to ns - 1 do
      let gp = sym.sy_g.(s) in
      let p = Array.copy gp in
      if sym.sy_has_c && s0 <> 0.0 then begin
        let cp = sym.sy_c.(s) in
        for k = 0 to Array.length p - 1 do
          Array.unsafe_set p k (Array.unsafe_get p k +. (s0 *. Array.unsafe_get cp k))
        done
      end;
      pan.(s) <- p
    done;
    (match extra with None -> () | Some entries -> stamp_extra sym pan entries);
    let dmax = ref 0.0 in
    for s = 0 to ns - 1 do
      let w = sym.sy_start.(s + 1) - sym.sy_start.(s) in
      let p = pan.(s) in
      for cl = 0 to w - 1 do
        let a = Float.abs p.((cl * w) + cl) in
        if a > !dmax then dmax := a
      done
    done;
    let breakdown = pivot_tol *. !dmax in
    let d = Array.make n 0.0 in
    let pos = Array.make n 0 in
    let head = Array.make ns (-1) in
    let next = Array.make ns (-1) in
    let ptr = Array.make ns 0 in
    let tmp = Array.make (max sym.sy_maxw 1) 0.0 in
    for s = 0 to ns - 1 do
      let st = sym.sy_start.(s) in
      let en = sym.sy_start.(s + 1) in
      let w = en - st in
      let rs = sym.sy_rows.(s) in
      let len = Array.length rs in
      let p = pan.(s) in
      for k = 0 to len - 1 do
        pos.(Array.unsafe_get rs k) <- k
      done;
      (* drain the pending-update list: every factored supernode whose
         next unconsumed row lands in this column range scatters its
         rank-w_t outer-product contribution into the panel; the
         fill-path theorem guarantees every (row, col) pair it touches
         is inside this panel's pattern, so the pos map needs no
         membership test *)
      let t = ref head.(s) in
      head.(s) <- -1;
      while !t <> -1 do
        let tt = !t in
        let nx = next.(tt) in
        let rt = sym.sy_rows.(tt) in
        let lent = Array.length rt in
        let stt = sym.sy_start.(tt) in
        let wt = sym.sy_start.(tt + 1) - stt in
        let pt = pan.(tt) in
        let p0 = ptr.(tt) in
        let q = ref p0 in
        while !q < lent && Array.unsafe_get rt !q < en do
          incr q
        done;
        let q = !q in
        for jj = p0 to q - 1 do
          let cj = Array.unsafe_get pos (Array.unsafe_get rt jj) in
          let base_j = jj * wt in
          for cx = 0 to wt - 1 do
            Array.unsafe_set tmp cx
              (Array.unsafe_get d (stt + cx) *. Array.unsafe_get pt (base_j + cx))
          done;
          for kk = jj to lent - 1 do
            let ki = Array.unsafe_get pos (Array.unsafe_get rt kk) in
            let base_k = kk * wt in
            let acc = ref 0.0 in
            for cx = 0 to wt - 1 do
              acc := !acc +. (Array.unsafe_get pt (base_k + cx) *. Array.unsafe_get tmp cx)
            done;
            let slot = (ki * w) + cj in
            Array.unsafe_set p slot (Array.unsafe_get p slot -. !acc)
          done
        done;
        ptr.(tt) <- q;
        if q < lent then begin
          let s' = sym.sy_colsn.(Array.unsafe_get rt q) in
          next.(tt) <- head.(s');
          head.(s') <- tt
        end;
        t := nx
      done;
      (* dense panel LDLᵀ: for each local column, finish the pivot
         against earlier columns of this supernode, then the
         trsm-shaped below-diagonal column scaled by 1/d *)
      for cl = 0 to w - 1 do
        let base_c = cl * w in
        let piv = ref (Array.unsafe_get p (base_c + cl)) in
        for c2 = 0 to cl - 1 do
          let l = Array.unsafe_get p (base_c + c2) in
          piv := !piv -. (l *. l *. Array.unsafe_get d (st + c2))
        done;
        if Float.abs !piv <= breakdown then raise (Singular (st + cl));
        Array.unsafe_set d (st + cl) !piv;
        let inv = 1.0 /. !piv in
        for kk = cl + 1 to len - 1 do
          let base_k = kk * w in
          let acc = ref (Array.unsafe_get p (base_k + cl)) in
          for c2 = 0 to cl - 1 do
            acc :=
              !acc
              -. (Array.unsafe_get p (base_k + c2)
                 *. Array.unsafe_get d (st + c2)
                 *. Array.unsafe_get p (base_c + c2))
          done;
          Array.unsafe_set p (base_k + cl) (!acc *. inv)
        done
      done;
      if w < len then begin
        ptr.(s) <- w;
        let s' = sym.sy_colsn.(rs.(w)) in
        next.(s) <- head.(s');
        head.(s') <- s
      end
    done;
    (* fp sanitizer (SYMOR_SAN=fp): scan the factor for NaN/Inf and
       monitor element growth — reads only, results bitwise identical *)
    if San.fp () then begin
      let lmax = ref 0.0 and dmax_out = ref 0.0 and finite = ref true in
      Array.iter
        (fun pnl ->
          Array.iter
            (fun x ->
              let a = Float.abs x in
              if Float.is_finite a then begin
                if a > !lmax then lmax := a
              end
              else finite := false)
            pnl)
        pan;
      Array.iter
        (fun x ->
          let a = Float.abs x in
          if Float.is_finite a then begin
            if a > !dmax_out then dmax_out := a
          end
          else finite := false)
        d;
      if !finite then
        San.Fp.growth ~name:"supernodal.factor" ~scale:!dmax ~lmax:!lmax ~dmax:!dmax_out
      else San.Fp.growth ~name:"supernodal.factor" ~scale:!dmax ~lmax:Float.nan ~dmax:Float.nan
    end;
    { sym; pan; d }

  let dim t = t.sym.sy_n

  let solve_lower t b =
    assert (Array.length b = t.sym.sy_n);
    let x = Array.copy b in
    for s = 0 to t.sym.sy_nsuper - 1 do
      let st = t.sym.sy_start.(s) in
      let w = t.sym.sy_start.(s + 1) - st in
      let rs = t.sym.sy_rows.(s) in
      let len = Array.length rs in
      let p = t.pan.(s) in
      for cl = 0 to w - 1 do
        let xj = Array.unsafe_get x (st + cl) in
        for kk = cl + 1 to len - 1 do
          let i = Array.unsafe_get rs kk in
          Array.unsafe_set x i
            (Array.unsafe_get x i -. (Array.unsafe_get p ((kk * w) + cl) *. xj))
        done
      done
    done;
    x

  let solve_lower_t t b =
    assert (Array.length b = t.sym.sy_n);
    let x = Array.copy b in
    for s = t.sym.sy_nsuper - 1 downto 0 do
      let st = t.sym.sy_start.(s) in
      let w = t.sym.sy_start.(s + 1) - st in
      let rs = t.sym.sy_rows.(s) in
      let len = Array.length rs in
      let p = t.pan.(s) in
      for cl = w - 1 downto 0 do
        let acc = ref (Array.unsafe_get x (st + cl)) in
        for kk = cl + 1 to len - 1 do
          acc :=
            !acc
            -. (Array.unsafe_get p ((kk * w) + cl)
               *. Array.unsafe_get x (Array.unsafe_get rs kk))
        done;
        Array.unsafe_set x (st + cl) !acc
      done
    done;
    x

  let solve t b =
    let y = solve_lower t b in
    for i = 0 to t.sym.sy_n - 1 do
      y.(i) <- y.(i) /. t.d.(i)
    done;
    let y = solve_lower_t t y in
    if San.fp () then San.Fp.check_array ~name:"supernodal.solve" y;
    y

  let d t = Array.copy t.d
  let fill t = t.sym.sy_nnz
end

(* Split-complex (structure-of-arrays) kernels for the AC path: the
   same supernodal recurrences on [G + sC] with re/im in separate
   unboxed float arrays. [Skyline.Complex_sym] is the oracle. *)
module Complex_soa = struct
  type t = {
    sym : symbolic;
    pre : float array array;
    pim : float array array;
    dre : float array;
    dim_ : float array;
  }

  let factor ?(pivot_tol = 1e-14) sym (s : Complex.t) =
    let n = sym.sy_n in
    let ns = sym.sy_nsuper in
    let sre = s.Complex.re and sim = s.Complex.im in
    let pre = Array.make ns [||] in
    let pim = Array.make ns [||] in
    for sn = 0 to ns - 1 do
      let gp = sym.sy_g.(sn) in
      let m = Array.length gp in
      let re = Array.copy gp in
      let im = Array.make m 0.0 in
      if sym.sy_has_c then begin
        let cp = sym.sy_c.(sn) in
        for k = 0 to m - 1 do
          let cv = Array.unsafe_get cp k in
          Array.unsafe_set re k (Array.unsafe_get re k +. (sre *. cv));
          Array.unsafe_set im k (sim *. cv)
        done
      end;
      pre.(sn) <- re;
      pim.(sn) <- im
    done;
    let dmax = ref 0.0 in
    for sn = 0 to ns - 1 do
      let w = sym.sy_start.(sn + 1) - sym.sy_start.(sn) in
      let re = pre.(sn) and im = pim.(sn) in
      for cl = 0 to w - 1 do
        let slot = (cl * w) + cl in
        let a = Float.hypot re.(slot) im.(slot) in
        if a > !dmax then dmax := a
      done
    done;
    let breakdown = pivot_tol *. !dmax in
    let dre = Array.make n 0.0 in
    let dim_ = Array.make n 0.0 in
    let pos = Array.make n 0 in
    let head = Array.make ns (-1) in
    let next = Array.make ns (-1) in
    let ptr = Array.make ns 0 in
    let mw = max sym.sy_maxw 1 in
    let tre = Array.make mw 0.0 in
    let tim = Array.make mw 0.0 in
    for sn = 0 to ns - 1 do
      let st = sym.sy_start.(sn) in
      let en = sym.sy_start.(sn + 1) in
      let w = en - st in
      let rs = sym.sy_rows.(sn) in
      let len = Array.length rs in
      let re = pre.(sn) and im = pim.(sn) in
      for k = 0 to len - 1 do
        pos.(Array.unsafe_get rs k) <- k
      done;
      let t = ref head.(sn) in
      head.(sn) <- -1;
      while !t <> -1 do
        let tt = !t in
        let nx = next.(tt) in
        let rt = sym.sy_rows.(tt) in
        let lent = Array.length rt in
        let stt = sym.sy_start.(tt) in
        let wt = sym.sy_start.(tt + 1) - stt in
        let tr = pre.(tt) and ti = pim.(tt) in
        let p0 = ptr.(tt) in
        let q = ref p0 in
        while !q < lent && Array.unsafe_get rt !q < en do
          incr q
        done;
        let q = !q in
        for jj = p0 to q - 1 do
          let cj = Array.unsafe_get pos (Array.unsafe_get rt jj) in
          let base_j = jj * wt in
          for cx = 0 to wt - 1 do
            let ar = Array.unsafe_get tr (base_j + cx)
            and ai = Array.unsafe_get ti (base_j + cx) in
            let br = Array.unsafe_get dre (stt + cx)
            and bi = Array.unsafe_get dim_ (stt + cx) in
            Array.unsafe_set tre cx ((ar *. br) -. (ai *. bi));
            Array.unsafe_set tim cx ((ar *. bi) +. (ai *. br))
          done;
          for kk = jj to lent - 1 do
            let ki = Array.unsafe_get pos (Array.unsafe_get rt kk) in
            let base_k = kk * wt in
            let accr = ref 0.0 and acci = ref 0.0 in
            for cx = 0 to wt - 1 do
              let ar = Array.unsafe_get tr (base_k + cx)
              and ai = Array.unsafe_get ti (base_k + cx) in
              let br = Array.unsafe_get tre cx and bi = Array.unsafe_get tim cx in
              accr := !accr +. ((ar *. br) -. (ai *. bi));
              acci := !acci +. ((ar *. bi) +. (ai *. br))
            done;
            let slot = (ki * w) + cj in
            Array.unsafe_set re slot (Array.unsafe_get re slot -. !accr);
            Array.unsafe_set im slot (Array.unsafe_get im slot -. !acci)
          done
        done;
        ptr.(tt) <- q;
        if q < lent then begin
          let s' = sym.sy_colsn.(Array.unsafe_get rt q) in
          next.(tt) <- head.(s');
          head.(s') <- tt
        end;
        t := nx
      done;
      for cl = 0 to w - 1 do
        let base_c = cl * w in
        let pr = ref (Array.unsafe_get re (base_c + cl)) in
        let pi = ref (Array.unsafe_get im (base_c + cl)) in
        for c2 = 0 to cl - 1 do
          let lr = Array.unsafe_get re (base_c + c2)
          and li = Array.unsafe_get im (base_c + c2) in
          let dr = Array.unsafe_get dre (st + c2) and di = Array.unsafe_get dim_ (st + c2) in
          (* l² d, complex symmetric (no conjugation) *)
          let l2r = (lr *. lr) -. (li *. li) in
          let l2i = 2.0 *. lr *. li in
          pr := !pr -. ((l2r *. dr) -. (l2i *. di));
          pi := !pi -. ((l2r *. di) +. (l2i *. dr))
        done;
        if Float.hypot !pr !pi <= breakdown then raise (Singular (st + cl));
        Array.unsafe_set dre (st + cl) !pr;
        Array.unsafe_set dim_ (st + cl) !pi;
        let den = (!pr *. !pr) +. (!pi *. !pi) in
        let ir = !pr /. den and ii = -.(!pi /. den) in
        for kk = cl + 1 to len - 1 do
          let base_k = kk * w in
          let accr = ref (Array.unsafe_get re (base_k + cl)) in
          let acci = ref (Array.unsafe_get im (base_k + cl)) in
          for c2 = 0 to cl - 1 do
            let ar = Array.unsafe_get re (base_k + c2)
            and ai = Array.unsafe_get im (base_k + c2) in
            let dr = Array.unsafe_get dre (st + c2) and di = Array.unsafe_get dim_ (st + c2) in
            let br = Array.unsafe_get re (base_c + c2)
            and bi = Array.unsafe_get im (base_c + c2) in
            let mr = (ar *. dr) -. (ai *. di) in
            let mi = (ar *. di) +. (ai *. dr) in
            accr := !accr -. ((mr *. br) -. (mi *. bi));
            acci := !acci -. ((mr *. bi) +. (mi *. br))
          done;
          Array.unsafe_set re (base_k + cl) ((!accr *. ir) -. (!acci *. ii));
          Array.unsafe_set im (base_k + cl) ((!accr *. ii) +. (!acci *. ir))
        done
      done;
      if w < len then begin
        ptr.(sn) <- w;
        let s' = sym.sy_colsn.(rs.(w)) in
        next.(sn) <- head.(s');
        head.(s') <- sn
      end
    done;
    if San.fp () then begin
      let lmax = ref 0.0 and dmax_out = ref 0.0 and finite = ref true in
      let scan_pair rs is =
        for k = 0 to Array.length rs - 1 do
          let a = Float.hypot rs.(k) is.(k) in
          if Float.is_finite a then begin
            if a > !lmax then lmax := a
          end
          else finite := false
        done
      in
      Array.iteri (fun i rp -> scan_pair rp pim.(i)) pre;
      for i = 0 to n - 1 do
        let a = Float.hypot dre.(i) dim_.(i) in
        if Float.is_finite a then begin
          if a > !dmax_out then dmax_out := a
        end
        else finite := false
      done;
      if !finite then
        San.Fp.growth ~name:"supernodal.complex_soa" ~scale:!dmax ~lmax:!lmax
          ~dmax:!dmax_out
      else
        San.Fp.growth ~name:"supernodal.complex_soa" ~scale:!dmax ~lmax:Float.nan
          ~dmax:Float.nan
    end;
    { sym; pre; pim; dre; dim_ }

  let dim t = t.sym.sy_n

  let solve_split t b_re b_im =
    let n = t.sym.sy_n in
    assert (Array.length b_re = n && Array.length b_im = n);
    for s = 0 to t.sym.sy_nsuper - 1 do
      let st = t.sym.sy_start.(s) in
      let w = t.sym.sy_start.(s + 1) - st in
      let rs = t.sym.sy_rows.(s) in
      let len = Array.length rs in
      let re = t.pre.(s) and im = t.pim.(s) in
      for cl = 0 to w - 1 do
        let xr = Array.unsafe_get b_re (st + cl) in
        let xi = Array.unsafe_get b_im (st + cl) in
        for kk = cl + 1 to len - 1 do
          let i = Array.unsafe_get rs kk in
          let lr = Array.unsafe_get re ((kk * w) + cl)
          and li = Array.unsafe_get im ((kk * w) + cl) in
          Array.unsafe_set b_re i (Array.unsafe_get b_re i -. ((lr *. xr) -. (li *. xi)));
          Array.unsafe_set b_im i (Array.unsafe_get b_im i -. ((lr *. xi) +. (li *. xr)))
        done
      done
    done;
    for i = 0 to n - 1 do
      let dr = t.dre.(i) and di = t.dim_.(i) in
      let den = (dr *. dr) +. (di *. di) in
      let xr = b_re.(i) and xi = b_im.(i) in
      b_re.(i) <- ((xr *. dr) +. (xi *. di)) /. den;
      b_im.(i) <- ((xi *. dr) -. (xr *. di)) /. den
    done;
    for s = t.sym.sy_nsuper - 1 downto 0 do
      let st = t.sym.sy_start.(s) in
      let w = t.sym.sy_start.(s + 1) - st in
      let rs = t.sym.sy_rows.(s) in
      let len = Array.length rs in
      let re = t.pre.(s) and im = t.pim.(s) in
      for cl = w - 1 downto 0 do
        let accr = ref (Array.unsafe_get b_re (st + cl)) in
        let acci = ref (Array.unsafe_get b_im (st + cl)) in
        for kk = cl + 1 to len - 1 do
          let i = Array.unsafe_get rs kk in
          let lr = Array.unsafe_get re ((kk * w) + cl)
          and li = Array.unsafe_get im ((kk * w) + cl) in
          let xr = Array.unsafe_get b_re i and xi = Array.unsafe_get b_im i in
          accr := !accr -. ((lr *. xr) -. (li *. xi));
          acci := !acci -. ((lr *. xi) +. (li *. xr))
        done;
        Array.unsafe_set b_re (st + cl) !accr;
        Array.unsafe_set b_im (st + cl) !acci
      done
    done;
    if San.fp () then begin
      San.Fp.check_array ~name:"supernodal.solve_split.re" b_re;
      San.Fp.check_array ~name:"supernodal.solve_split.im" b_im
    end

  (* Z = BᵀA⁻¹B = Yᵀ D⁻¹ Y with Y = L⁻¹B: complex symmetric, so no
     conjugation and no backward pass. Y is nonzero only on the ports'
     reach, so the forward pass visits the reach columns alone, with
     the p right-hand sides interleaved per row. *)
  let transfer t r idx vals =
    if r.r_sym != t.sym then
      invalid_arg "Supernodal.Complex_soa.transfer: reach of another symbolic phase";
    let sym = t.sym in
    let p = Array.length idx in
    let pos = r.r_pos in
    let m = Array.length r.r_cols * p in
    let yre = Array.make m 0.0 and yim = Array.make m 0.0 in
    Array.iteri
      (fun c ci ->
        Array.iteri
          (fun k i ->
            if pos.(i) < 0 then
              invalid_arg "Supernodal.Complex_soa.transfer: row outside the reach";
            yre.((pos.(i) * p) + c) <- vals.(c).(k))
          ci)
      idx;
    for s = 0 to sym.sy_nsuper - 1 do
      let st = sym.sy_start.(s) in
      let w = sym.sy_start.(s + 1) - st in
      let rs = sym.sy_rows.(s) in
      let len = Array.length rs in
      let re = t.pre.(s) and im = t.pim.(s) in
      for cl = r.r_first.(s) to w - 1 do
        let bj = Array.unsafe_get pos (st + cl) * p in
        for kk = cl + 1 to len - 1 do
          let bi = Array.unsafe_get pos (Array.unsafe_get rs kk) * p in
          let lr = Array.unsafe_get re ((kk * w) + cl)
          and li = Array.unsafe_get im ((kk * w) + cl) in
          for c = 0 to p - 1 do
            let xr = Array.unsafe_get yre (bj + c) and xi = Array.unsafe_get yim (bj + c) in
            Array.unsafe_set yre (bi + c)
              (Array.unsafe_get yre (bi + c) -. ((lr *. xr) -. (li *. xi)));
            Array.unsafe_set yim (bi + c)
              (Array.unsafe_get yim (bi + c) -. ((lr *. xi) +. (li *. xr)))
          done
        done
      done
    done;
    (* upper triangle of Σᵢ Yᵢᵣ Yᵢ꜀ / dᵢ, then the mirror: Z is exactly
       symmetric *)
    let z = Linalg.Cmat.create p p in
    let zre = z.Linalg.Cmat.re and zim = z.Linalg.Cmat.im in
    let tre = Array.make p 0.0 and tim = Array.make p 0.0 in
    Array.iteri
      (fun q j ->
        let dr = t.dre.(j) and di = t.dim_.(j) in
        let den = (dr *. dr) +. (di *. di) in
        let ir = dr /. den and ii = -.(di /. den) in
        let b = q * p in
        for c = 0 to p - 1 do
          let yr = yre.(b + c) and yi = yim.(b + c) in
          tre.(c) <- (yr *. ir) -. (yi *. ii);
          tim.(c) <- (yr *. ii) +. (yi *. ir)
        done;
        for r = 0 to p - 1 do
          let ar = tre.(r) and ai = tim.(r) in
          for c = r to p - 1 do
            let yr = Array.unsafe_get yre (b + c) and yi = Array.unsafe_get yim (b + c) in
            let k = (r * p) + c in
            Array.unsafe_set zre k (Array.unsafe_get zre k +. ((ar *. yr) -. (ai *. yi)));
            Array.unsafe_set zim k (Array.unsafe_get zim k +. ((ar *. yi) +. (ai *. yr)))
          done
        done)
      r.r_cols;
    for r = 0 to p - 1 do
      for c = 0 to r - 1 do
        zre.((r * p) + c) <- zre.((c * p) + r);
        zim.((r * p) + c) <- zim.((c * p) + r)
      done
    done;
    if San.fp () then begin
      San.Fp.check_array ~name:"supernodal.transfer.re" zre;
      San.Fp.check_array ~name:"supernodal.transfer.im" zim
    end;
    z

  let d t =
    Array.init (dim t) (fun i -> { Complex.re = t.dre.(i); im = t.dim_.(i) })

  let fill t = t.sym.sy_nnz
end
