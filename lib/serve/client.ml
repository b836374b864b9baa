type t = { ic : in_channel; oc : out_channel }

let connect ?(deadline_s = 10.0) addr =
  let sa = Protocol.sockaddr addr in
  let deadline = Obs.now () +. deadline_s in
  let rec go () =
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | EAGAIN), _, _)
      when Obs.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go ()
    | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      Circuit.Diagnostic.user_errorf "cannot connect to %s: %s"
        (Protocol.addr_to_string addr) (Unix.error_message err)
  in
  let fd = go () in
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t = match input_line t.ic with
  | line -> Some line
  | exception End_of_file -> None

let request t line =
  send_line t line;
  recv_line t

let close t =
  (* one underlying fd: close the out channel (flushes), ignore the
     in channel's duplicate-close complaint *)
  match close_out t.oc with
  | () -> ()
  | exception Sys_error _ -> ()
