(* The reason of a [Sys_error] message: the text after its last ": ".
   Messages about the temporary file name that file, or no file, first. *)
let reason msg =
  match String.rindex_opt msg ':' with
  | Some i when i + 1 < String.length msg && msg.[i + 1] = ' ' ->
      String.sub msg (i + 2) (String.length msg - i - 2)
  | _ -> msg

let write_atomic path f =
  let fail = function
    | Sys_error msg -> raise (Sys_error (path ^ ": " ^ reason msg))
    | e -> raise e
  in
  let tmp =
    let prefix = "." ^ Filename.basename path ^ "." in
    try Filename.temp_file ~temp_dir:(Filename.dirname path) prefix ".tmp" with e -> fail e
  in
  try
    let oc = open_out tmp in
    (match f oc with
    | () -> close_out oc
    | exception e ->
        close_out_noerr oc;
        raise e);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    fail e

let write_atomic_string path s = write_atomic path (fun oc -> output_string oc s)
