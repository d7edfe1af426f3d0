(* The binary layout shared by every persisted record; see wire.mli. *)

(* -- writing ----------------------------------------------------------- *)

let put_char = Buffer.add_char
let put_magic = Buffer.add_string
let put_bool b v = Buffer.add_char b (if v then '1' else '0')
let put_int b i = Buffer.add_int64_le b (Int64.of_int i)

let put_string b s =
  Buffer.add_int32_le b (Int32.of_int (String.length s));
  Buffer.add_string b s

let put_list b f xs =
  put_int b (List.length xs);
  List.iter (f b) xs

let put_array b f a =
  put_int b (Array.length a);
  Array.iter (f b) a

let put_option b f = function
  | None -> Buffer.add_char b '0'
  | Some v ->
      Buffer.add_char b '1';
      f b v

(* -- reading ----------------------------------------------------------- *)

type reader = { s : string; mutable pos : int }

exception Bad

let fail () = raise Bad
let remaining r = String.length r.s - r.pos
let at_end r = r.pos = String.length r.s

let decode s f =
  let r = { s; pos = 0 } in
  match f r with
  | v when at_end r -> Some v
  | _ -> None
  | exception Bad -> None

(* Every read goes through [advance], so no read starts past the end. *)
let advance r k =
  if k < 0 || remaining r < k then raise Bad;
  let at = r.pos in
  r.pos <- at + k;
  at

let get_char r = r.s.[advance r 1]
let get_magic r n = String.sub r.s (advance r n) n
let get_bool r = match get_char r with '1' -> true | '0' -> false | _ -> raise Bad
let get_int r = Int64.to_int (String.get_int64_le r.s (advance r 8))
let u32_at s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF

let get_string r =
  let len = u32_at r.s (advance r 4) in
  String.sub r.s (advance r len) len

(* Every element of every layout takes at least one byte, so a count
   larger than the bytes that remain is corrupt: it is rejected before
   anything is allocated, and elements are allocated only as they are
   read. *)
let get_count r =
  let k = get_int r in
  if k < 0 || k > remaining r then raise Bad;
  k

let get_list r f = List.init (get_count r) (fun _ -> f r)
let get_array r f = Array.of_list (get_list r f)

let get_option r f =
  match get_char r with '0' -> None | '1' -> Some (f r) | _ -> raise Bad

(* -- frames ------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let frame_overhead = 8
(* No record comes near this; a larger length field is mid-frame garbage. *)
let max_frame_len = 64 * 1024 * 1024

let frame payload =
  let b = Buffer.create (frame_overhead + String.length payload) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (crc32 payload));
  Buffer.add_string b payload;
  Buffer.contents b

let unframe data off =
  let n = String.length data - off in
  if n < frame_overhead then Error (Printf.sprintf "short frame header (%d byte(s))" n)
  else begin
    let len = u32_at data off in
    if len > max_frame_len then Error "implausible frame length"
    else if n - frame_overhead < len then
      Error (Printf.sprintf "truncated payload (%d of %d byte(s))" (n - frame_overhead) len)
    else begin
      let payload = String.sub data (off + frame_overhead) len in
      if crc32 payload <> u32_at data (off + 4) then Error "frame CRC mismatch"
      else Ok (payload, off + frame_overhead + len)
    end
  end
