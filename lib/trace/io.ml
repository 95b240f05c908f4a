let save path (t : Record.t) =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# trace\t%s\n" t.name;
      Printf.fprintf oc "# span\t%.6f\n" t.span;
      Array.iter
        (fun (c : Record.connection) ->
          Printf.fprintf oc "%.6f\t%.6f\t%s\t%.1f\t%d\n" c.start c.duration
            (Record.protocol_to_string c.protocol)
            c.bytes c.session_id)
        t.connections)

(* A malformed line: its 1-based number and what is wrong with it. *)
exception Bad of int * string

let number line what s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> x
  | _ ->
    raise (Bad (line, Printf.sprintf "%s %S is not a finite number" what s))

let integer line what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Bad (line, Printf.sprintf "%s %S is not an integer" what s))

let protocol line s =
  match Record.protocol_of_string s with
  | Some p -> p
  | None -> raise (Bad (line, "unknown protocol " ^ s))

let read_table path ~kind ~fields row =
  match
    In_channel.with_open_text path (fun ic ->
        let header line tag =
          match In_channel.input_line ic with
          | None -> raise (Bad (line, "empty file or missing header"))
          | Some l -> (
            match String.split_on_char '\t' l with
            | [ t; value ] when t = "# " ^ tag -> value
            | _ -> raise (Bad (line, "bad header, expected \"# " ^ tag ^ "\"")))
        in
        let name = header 1 kind in
        let span = number 2 "span" (header 2 "span") in
        let rec rows line acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some "" -> rows (line + 1) acc
          | Some l ->
            let fs = Array.of_list (String.split_on_char '\t' l) in
            if Array.length fs <> fields then
              raise
                (Bad
                   ( line,
                     Printf.sprintf "expected %d fields, got %d" fields
                       (Array.length fs) ));
            rows (line + 1) (row line fs :: acc)
        in
        (name, span, rows 3 []))
  with
  | table -> Ok table
  | exception Bad (line, why) ->
    Error (Printf.sprintf "%s:%d: %s" path line why)
  | exception Sys_error msg -> Error msg

let load path =
  read_table path ~kind:"trace" ~fields:5 (fun line fs ->
      {
        Record.start = number line "start" fs.(0);
        duration = number line "duration" fs.(1);
        protocol = protocol line fs.(2);
        bytes = number line "bytes" fs.(3);
        session_id = integer line "session" fs.(4);
      })
  |> Result.map (fun (name, span, conns) -> Record.create ~name ~span conns)
