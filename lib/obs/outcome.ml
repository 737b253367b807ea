(** Experiment results: metrics plus declared gates, serialised by one
    JSON writer for every bench experiment and the hostile suite. *)

type clock = Sim | Wall

type metric = { key : string; value : float; unit : string; clock : clock }
type gate = { name : string; pass : bool; detail : string }
type t = { metrics : metric list; gates : gate list }

let metric ~clock ~unit key value = { key; value; unit; clock }
let gate name pass detail = { name; pass; detail }
let failed t = List.filter (fun g -> not g.pass) t.gates

let escape_json s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest of %.15g / %.17g that reads back as the same float: a
   failing run's nan or infinity has no JSON spelling, so it is null. *)
let json_float x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let str s = "\"" ^ escape_json s ^ "\""

let to_json ~name ~scale t =
  let b = Buffer.create 1024 in
  let list field items render =
    Printf.bprintf b "  %s: [" (str field);
    List.iteri
      (fun i x -> Printf.bprintf b "%s\n    {%s}" (if i = 0 then "" else ",") (render x))
      items;
    Buffer.add_string b (if items = [] then "]" else "\n  ]")
  in
  Printf.bprintf b "{\n  \"experiment\": %s,\n  \"scale\": %s,\n  \"passed\": %b,\n"
    (str name) (json_float scale) (failed t = []);
  list "metrics" t.metrics (fun m ->
      Printf.sprintf "\"key\": %s, \"value\": %s, \"unit\": %s, \"clock\": %s"
        (str m.key) (json_float m.value) (str m.unit)
        (str (match m.clock with Sim -> "sim" | Wall -> "wall")));
  Buffer.add_string b ",\n";
  list "gates" t.gates (fun g ->
      Printf.sprintf "\"name\": %s, \"pass\": %b, \"detail\": %s" (str g.name) g.pass
        (str g.detail));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let write ~path ~name ~scale t =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_json ~name ~scale t))
