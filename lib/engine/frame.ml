(* Wire format: "PF" | version u8 | kind u8 | length u32le | payload |
   sha256(version..payload). See frame.mli. *)

type t = { kind : int; payload : string }

let version = 1
let magic = "PF"
let max_payload = 1 lsl 28
let header_len = 8 (* magic 2 + version 1 + kind 1 + length 4 *)
let trailer_len = 32
let overhead = header_len + trailer_len

type error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Oversized of int
  | Bad_checksum

let error_to_string = function
  | Truncated -> "frame truncated"
  | Bad_magic -> "bad frame magic"
  | Unsupported_version v -> Printf.sprintf "unsupported frame version %d" v
  | Oversized n -> Printf.sprintf "frame payload length %d exceeds limit" n
  | Bad_checksum -> "frame checksum mismatch"

module Wr = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xff)
  let u16 b v = Buffer.add_uint16_le b (v land 0xffff)
  let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
  let i64 b v = Buffer.add_int64_le b (Int64.of_int v)
  let f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

  let str b s =
    let n = String.length s in
    if n > 0xffff then
      invalid_arg (Printf.sprintf "Frame.Wr.str: %d bytes (limit 65535)" n);
    u16 b n;
    Buffer.add_string b s
end

module Rd = struct
  type cursor = { s : string; mutable pos : int }

  exception Malformed of string

  let of_string s = { s; pos = 0 }

  let need c n what =
    if c.pos + n > String.length c.s then
      raise (Malformed (Printf.sprintf "truncated %s at byte %d" what c.pos))

  let u8 c =
    need c 1 "u8";
    let v = String.get_uint8 c.s c.pos in
    c.pos <- c.pos + 1;
    v

  let u16 c =
    need c 2 "u16";
    let v = String.get_uint16_le c.s c.pos in
    c.pos <- c.pos + 2;
    v

  let u32 c =
    need c 4 "u32";
    let v = Int32.to_int (String.get_int32_le c.s c.pos) land 0xffffffff in
    c.pos <- c.pos + 4;
    v

  let i64 c =
    need c 8 "i64";
    let v = Int64.to_int (String.get_int64_le c.s c.pos) in
    c.pos <- c.pos + 8;
    v

  let f64 c =
    need c 8 "f64";
    let v = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
    c.pos <- c.pos + 8;
    v

  let str c =
    let n = u16 c in
    need c n "str";
    let v = String.sub c.s c.pos n in
    c.pos <- c.pos + n;
    v

  let rest c =
    let v = String.sub c.s c.pos (String.length c.s - c.pos) in
    c.pos <- String.length c.s;
    v

  let at_end c = c.pos = String.length c.s
end

(* The digest covers version | kind | length | payload — everything the
   receiver acts on; the magic is a fixed resync marker outside it. *)
let to_buffer b t =
  if t.kind < 0 || t.kind > 0xff then
    invalid_arg (Printf.sprintf "Frame.encode: kind %d (want 0..255)" t.kind);
  let n = String.length t.payload in
  if n > max_payload then
    invalid_arg
      (Printf.sprintf "Frame.encode: payload %d bytes (limit %d)" n
         max_payload);
  Buffer.add_string b magic;
  let body_start = Buffer.length b in
  Wr.u8 b version;
  Wr.u8 b t.kind;
  Wr.u32 b n;
  Buffer.add_string b t.payload;
  let body = Buffer.sub b body_start (Buffer.length b - body_start) in
  Buffer.add_string b (Sha256.digest body)

let encode t =
  let b = Buffer.create (String.length t.payload + overhead) in
  to_buffer b t;
  Buffer.contents b

let check_header ~ver ~len =
  if ver <> version then Error (Unsupported_version ver)
  else if len < 0 || len > max_payload then Error (Oversized len)
  else Ok ()

let decode s pos =
  let total = String.length s in
  if pos + header_len > total then Error Truncated
  else if String.sub s pos 2 <> magic then Error Bad_magic
  else begin
    let ver = String.get_uint8 s (pos + 2) in
    let kind = String.get_uint8 s (pos + 3) in
    let len = Int32.to_int (String.get_int32_le s (pos + 4)) land 0xffffffff in
    match check_header ~ver ~len with
    | Error e -> Error e
    | Ok () ->
      if pos + header_len + len + trailer_len > total then Error Truncated
      else begin
        let body = String.sub s (pos + 2) (6 + len) in
        let trailer = String.sub s (pos + header_len + len) trailer_len in
        if not (String.equal (Sha256.digest body) trailer) then
          Error Bad_checksum
        else
          Ok
            ( { kind; payload = String.sub s (pos + header_len) len },
              pos + header_len + len + trailer_len )
      end
  end

let read ic =
  match input_char ic with
  | exception End_of_file -> Ok None
  | c0 -> (
    let rest = Bytes.create (header_len - 1) in
    match really_input ic rest 0 (header_len - 1) with
    | exception End_of_file -> Error Truncated
    | () ->
      if c0 <> magic.[0] || Bytes.get rest 0 <> magic.[1] then Error Bad_magic
      else begin
        let ver = Bytes.get_uint8 rest 1 in
        let kind = Bytes.get_uint8 rest 2 in
        let len =
          Int32.to_int (Bytes.get_int32_le rest 3) land 0xffffffff
        in
        match check_header ~ver ~len with
        | Error e -> Error e
        | Ok () -> (
          let tail = Bytes.create (len + trailer_len) in
          match really_input ic tail 0 (len + trailer_len) with
          | exception End_of_file -> Error Truncated
          | () ->
            let body =
              Bytes.to_string (Bytes.sub rest 1 6)
              ^ Bytes.sub_string tail 0 len
            in
            let trailer = Bytes.sub_string tail len trailer_len in
            if not (String.equal (Sha256.digest body) trailer) then
              Error Bad_checksum
            else Ok (Some { kind; payload = Bytes.sub_string tail 0 len }))
      end)
