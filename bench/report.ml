(* Plain-text table rendering for the benchmark harness.  Numeric
   columns are declared once: the printed cell and the metric reported
   for it come from the same float, so they cannot drift apart. *)

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title bar

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* Render a table: [header] row then [rows], columns padded. *)
let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let render row =
    String.concat "  "
      (List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row)
  in
  Printf.printf "  %s\n" (render header);
  Printf.printf "  %s\n"
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Printf.printf "  %s\n" (render row)) rows

let f0 x = Printf.sprintf "%.0f" x
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x

let sim ~unit key v = Obs.Outcome.metric ~clock:Sim ~unit key v
let wall ~unit key v = Obs.Outcome.metric ~clock:Wall ~unit key v
let count key n = sim ~unit:"count" key (float_of_int n)
let value metrics key = (List.find (fun m -> m.Obs.Outcome.key = key) metrics).value
let labelled label xs = List.map (fun x -> (label x, x)) xs

type 'r column =
  | Num of { header : string; unit : string; clock : Obs.Outcome.clock;
             fmt : float -> string; get : 'r -> float }
  | Text of string * ('r -> string)

let num ?(clock = Obs.Outcome.Sim) ?(fmt = f2) ~unit header get =
  Num { header; unit; clock; fmt; get }

let int ?clock header get =
  num ?clock ~fmt:f0 ~unit:"count" header (fun r -> float_of_int (get r))

let text header show = Text (header, show)

(* One table row per [(label, row)] entry, cells computed row by row.
   Returns every numeric cell as a metric keyed "prefix/label/header"
   (the header is left out when the table has a single column). *)
let rows ?prefix ~corner cols rows =
  let cells =
    List.map
      (fun (label, r) ->
        ( label,
          List.map
            (function
              | Num n ->
                  let v = n.get r in
                  let key = match cols with [ _ ] -> [] | _ -> [ n.header ] in
                  let key = String.concat "/" (Option.to_list prefix @ (label :: key)) in
                  (n.fmt v, Some (Obs.Outcome.metric ~clock:n.clock ~unit:n.unit key v))
              | Text (_, show) -> (show r, None))
            cols ))
      rows
  in
  table
    ~header:(corner :: List.map (function Num n -> n.header | Text (h, _) -> h) cols)
    (List.map (fun (label, cs) -> label :: List.map fst cs) cells);
  List.concat_map (fun (_, cs) -> List.filter_map snd cs) cells

(* A "configurations x parameter" table: cell [f row col] per entry of
   [cols], reported as simulated-time metrics. *)
let grid ?prefix ~corner ~unit ?fmt ~cols rs f =
  rows ?prefix ~corner
    (List.map (fun (header, c) -> num ?fmt ~unit header (fun r -> f r c)) cols)
    rs
