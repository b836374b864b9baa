module D = Circuit.Diagnostic

let rules =
  [
    ( "MOD001",
      D.Warning,
      "unstable reduced-model pole(s); error when the structural theorem \
       promised stability" );
    ( "MOD002",
      D.Info,
      "structural passivity certificate (Cholesky J = I path); error/warning \
       when the certificate is violated" );
    ( "MOD003",
      D.Warning,
      "Hamiltonian imaginary-axis test located passivity violation band(s)" );
    ("MOD004", D.Warning, "reciprocity residual |Z - Z^T|/|Z| above tolerance");
    ( "MOD005",
      D.Warning,
      "prescribed Pade moments not matched against the exact pencil" );
    ("MOD006", D.Warning, "DC point disagrees with the exact zeroth moment");
    ( "MOD007",
      D.Warning,
      "violation-band report: frequency range, worst point, suggested safe \
       order" );
    ( "MOD008",
      D.Info,
      "expansion shift outside the certified regime; warning when the SPD \
       path was available" );
    ( "MOD009",
      D.Warning,
      "reduced model drifts from the exact transfer function beyond the \
       golden gate, or a zero pivot in the exact jω factor of a non-LC \
       pencil skipped drift samples" );
    ( "MOD010",
      D.Warning,
      "backward residual of the real factor the model was built from above \
       tolerance" );
  ]

let find code = List.find_opt (fun (c, _, _) -> c = code) rules
