(* The compiled wire codec against its reference model ([Wire_model],
   the interpreter it replaced).  On every input the compiled writer,
   reader and sanitizer must give the model's bytes or value, or raise
   the same exception with the same message or violation, and report
   the same coverage labels, hit for hit.

   Inputs: every golden-corpus descriptor and response; seeded
   [Proto.Fuzz] descriptors (valid skeletons and mutated ones); the
   hostile suite's grammar-campaign stream (its seeds, 1,000
   descriptors each) and its per-class ioctl sweep (its seeds and
   commands, arguments built in a scratch address space); byte flips
   over encoded descriptors; structured requests with out-of-range
   fields, which only the encoder and the checkpoint-restore sanitizer
   see; and generated, then mutated, responses.  A failure names the
   campaign, its seed and the input's index. *)

module P = Paradice.Proto
module W = Paradice.Wire_spec
module IG = Paradice.Ioctl_guard

(* The backend's own bounds, and tight ones under which generated
   transfers and poll timeouts are often out of range or clamped. *)
let limit_sets =
  [
    P.Fuzz.default_limits;
    {
      W.max_transfer_bytes = Paradice.Config.default.Paradice.Config.max_transfer_bytes;
      poll_timeout_cap_us = Paradice.Config.default.Paradice.Config.poll_timeout_cap_us;
      grant_capacity = Hypervisor.Grant_table.capacity;
    };
    { W.max_transfer_bytes = 4096; poll_timeout_cap_us = 100.; grant_capacity = 4 };
  ]

(* ---- outcomes: a value, or the exception described exactly ---- *)

type 'a outcome = Value of 'a | Raised of string

let describe = function
  | W.Malformed msg -> "Malformed " ^ msg
  | W.Rejected { field; detail } -> Printf.sprintf "Rejected %s: %s" field detail
  | W.Oversized { field; length; limit } ->
      Printf.sprintf "Oversized %s %d/%d" field length limit
  | Invalid_argument msg -> "Invalid_argument " ^ msg
  | e -> "unexpected " ^ Printexc.to_string e

(* Run [f] with coverage counted from zero: its outcome and the labels
   it hit. *)
let covered f =
  W.Coverage.reset ();
  W.Coverage.enable ();
  let outcome = match f () with v -> Value v | exception e -> Raised (describe e) in
  W.Coverage.disable ();
  (outcome, W.Coverage.snapshot ())

let show_outcome show = function Value v -> show v | Raised e -> "raised " ^ e

let show_labels labels =
  String.concat "," (List.map (fun (l, n) -> Printf.sprintf "%s*%d" l n) labels)

let hex b = String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let show_req r = P.request_name r
let show_resp = function
  | P.Rok v -> Printf.sprintf "Rok %d" v
  | P.Rerr e -> Printf.sprintf "Rerr %d" e
  | P.Rpoll_reply { pollin; pollout } -> Printf.sprintf "Rpoll_reply %b %b" pollin pollout
  | P.Rbatch_reply subs -> Printf.sprintf "Rbatch_reply(%d)" (List.length subs)

(* [compiled] and [model] must agree, outcome and coverage. *)
let agree ~where ~what show compiled model =
  let c = covered compiled and m = covered model in
  if c <> m then
    Alcotest.failf "%s: %s differs\n  compiled: %s [%s]\n  model:    %s [%s]" where what
      (show_outcome show (fst c)) (show_labels (snd c))
      (show_outcome show (fst m)) (show_labels (snd m))

let model_read ~limits b =
  let req, grant_ref, pid = Wire_model.decode_request b in
  match Wire_model.validate_limits ~limits (req, grant_ref, pid) with
  | Ok r -> r
  | Error v -> raise (W.Rejected v)

(* Everything the backend and the frontend do with one descriptor. *)
let check_descriptor ~where b =
  agree ~where ~what:"decode_request"
    (fun (r, g, p) -> Printf.sprintf "%s g=%d p=%d" (show_req r) g p)
    (fun () -> P.decode_request b)
    (fun () -> Wire_model.decode_request b);
  List.iter
    (fun limits ->
      agree ~where ~what:"read_request (sanitize)" show_req
        (fun () -> P.read_request ~limits ~sanitize:true b)
        (fun () -> model_read ~limits b))
    limit_sets;
  agree ~where ~what:"read_request (no sanitize)" show_req
    (fun () -> P.read_request ~limits:P.Fuzz.default_limits ~sanitize:false b)
    (fun () ->
      let r, _, _ = Wire_model.decode_request b in
      r);
  match Wire_model.decode_request b with
  | exception W.Malformed _ -> ()
  | req, grant_ref, pid ->
      agree ~where ~what:"re-encode" hex
        (fun () -> P.encode_request ~grant_ref ~pid req)
        (fun () -> Wire_model.encode_request ~grant_ref ~pid req)

(* Everything done with one structured request, including values no
   decoder can produce (negative vfds, NaN timeouts, nested batches). *)
let check_request ~where ~grant_ref ~pid req =
  agree ~where ~what:"check_request" (fun () -> "ok")
    (fun () -> P.check_request req)
    (fun () -> Wire_model.check_request req);
  agree ~where ~what:"encode_request" hex
    (fun () -> P.encode_request ~grant_ref ~pid req)
    (fun () -> Wire_model.encode_request ~grant_ref ~pid req);
  List.iter
    (fun limits ->
      agree ~where ~what:"validate_limits"
        (function Ok r -> "Ok " ^ show_req r | Error v -> "Error " ^ v.P.field)
        (fun () -> P.validate_limits ~limits (req, grant_ref, pid))
        (fun () -> Wire_model.validate_limits ~limits (req, grant_ref, pid)))
    limit_sets;
  match Wire_model.encode_request ~grant_ref ~pid req with
  | b -> check_descriptor ~where b
  | exception (W.Oversized _ | Invalid_argument _) -> ()

let check_response_bytes ~where b =
  agree ~where ~what:"decode_response" show_resp
    (fun () -> P.decode_response b)
    (fun () -> Wire_model.decode_response b)

let check_response ~where resp =
  agree ~where ~what:"encode_response" hex
    (fun () -> P.encode_response resp)
    (fun () -> Wire_model.encode_response resp);
  match Wire_model.encode_response resp with
  | b -> check_response_bytes ~where b
  | exception Invalid_argument _ -> ()

let where campaign seed i = Printf.sprintf "%s seed=%#Lx #%d" campaign seed i

(* ---- campaigns ---- *)

let test_golden () =
  List.iter
    (fun (name, _, _, ghex) ->
      check_descriptor ~where:("golden " ^ name) (Test_wire.unhex ghex))
    Golden_corpus.golden_requests;
  List.iter
    (fun (name, gref, pid, req) ->
      check_request ~where:("golden " ^ name) ~grant_ref:gref ~pid req)
    Test_wire.golden_reqs;
  List.iter
    (fun (name, ghex) ->
      check_response_bytes ~where:("golden " ^ name) (Test_wire.unhex ghex))
    Golden_corpus.golden_responses;
  List.iter
    (fun (name, resp) -> check_response ~where:("golden " ^ name) resp)
    Test_wire.golden_resps

(* Proto.Fuzz descriptors: 7 in 8 mutated, the rest valid skeletons;
   and every skeleton unmutated, through the structured path. *)
let test_fuzz () =
  let seeds = List.init 10 (fun i -> Int64.of_int (0xC0DEC_000 + i)) in
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      for i = 1 to 1_000 do
        let grant_ref = Sim.Rng.int rng 8 and pid = Sim.Rng.int rng 4000 in
        check_descriptor ~where:(where "fuzz" seed i)
          (P.Fuzz.descriptor rng ~grant_ref ~pid)
      done;
      let limits =
        List.nth limit_sets (Int64.to_int (Int64.rem seed 3L))
      in
      for i = 1 to 200 do
        List.iter
          (fun spec ->
            check_request ~where:(where ("skeleton " ^ spec.W.name) seed i) ~grant_ref:1
              ~pid:2 (W.generate spec limits rng))
          P.req_specs
      done)
    seeds

(* The hostile suite's campaign 4: the same seeds and descriptor
   stream (the suite's app pid aside). *)
let test_grammar_campaign () =
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      for i = 1 to 1_000 do
        check_descriptor ~where:(where "grammar" seed i)
          (P.Fuzz.descriptor rng ~grant_ref:(Sim.Rng.int rng 8) ~pid:2)
      done)
    [
      0x5EED_0001L; 0x5EED_0002L; 0x5EED_0003L; 0x5EED_0004L; 0x5EED_0005L;
      0x5EED_0006L; 0x5EED_0007L; 0x5EED_0008L; 0x5EED_0009L; 0x5EED_000AL;
      0x5EED_000BL; 0x5EED_000CL;
    ]

(* The hostile suite's campaign 5: per analyzed class, its seeds and
   commands, half the arguments carrying an injected fact violation. *)
let test_class_campaign () =
  let next = ref 0x10000 in
  let mem =
    {
      IG.Fuzz.alloc =
        (fun n ->
          let a = !next in
          next := !next + ((max n 8 + 7) land lnot 7);
          a);
      write32 = (fun ~addr:_ _ -> ());
      write64 = (fun ~addr:_ _ -> ());
    }
  in
  let limits = List.nth limit_sets 1 in
  List.iter
    (fun dev_class ->
      let cmds = Array.of_list (IG.Fuzz.cmds ~dev_class) in
      List.iter
        (fun seed ->
          let rng = Sim.Rng.create ~seed in
          let rand n = Sim.Rng.int rng n in
          for i = 1 to 500 do
            let cmd = cmds.(rand (Array.length cmds)) in
            let arg =
              if rand 2 = 0 then IG.Fuzz.mutate ~rand ~limits mem ~dev_class ~cmd
              else IG.Fuzz.seed ~rand mem ~dev_class ~cmd
            in
            check_request
              ~where:(where ("class " ^ dev_class) seed i)
              ~grant_ref:0 ~pid:2
              (P.Rioctl { vfd = 1; cmd; arg })
          done)
        [ 0x10C7_0001L; 0x10C7_0002L; 0x10C7_0003L; 0x10C7_0004L; 0x10C7_0005L ])
    [ "gpu"; "input"; "camera"; "audio"; "net" ]

(* Random byte flips and word stores over encoded descriptors, and
   fully random slots. *)
let test_byte_flips () =
  let seed = 0xF11B_5EEDL in
  let rng = Sim.Rng.create ~seed in
  for i = 1 to 4_000 do
    let b =
      if Sim.Rng.int rng 8 = 0 then Bytes.init P.slot_size (fun _ -> Char.chr (Sim.Rng.int rng 256))
      else begin
        let b = P.Fuzz.descriptor rng ~grant_ref:(Sim.Rng.int rng 8) ~pid:2 in
        for _ = 1 to 1 + Sim.Rng.int rng 4 do
          if Sim.Rng.bool rng then
            Bytes.set_uint8 b (Sim.Rng.int rng 1004) (Sim.Rng.int rng 256)
          else
            Bytes.set_int32_le b (4 * Sim.Rng.int rng 251) (Int32.of_int (Sim.Rng.int rng 64))
        done;
        b
      end
    in
    check_descriptor ~where:(where "flips" seed i) b
  done

(* Structured requests no decoder can produce: out-of-range and
   negative fields, NaN and infinite timeouts, hostile paths, batches
   of the wrong size or carrying unbatchable or nested sub-ops. *)
let test_structured () =
  let seed = 0x57_12C7L in
  let rng = Sim.Rng.create ~seed in
  let int () =
    match Sim.Rng.int rng 5 with
    | 0 -> -1 - Sim.Rng.int rng 100
    | 1 -> max_int - Sim.Rng.int rng 100
    | 2 -> min_int + Sim.Rng.int rng 100
    | _ -> Sim.Rng.int rng 0x20000
  in
  let paths =
    [| "/dev/null0"; "/etc/passwd"; "/dev/../etc"; "/dev/nu\000l"; ""; String.make 300 'A';
       "/dev/" ^ String.make 251 'a' |]
  in
  let rec request depth =
    let vfd = int () in
    match Sim.Rng.int rng 12 with
    | 0 -> P.Rnoop
    | 1 -> P.Ropen { path = paths.(Sim.Rng.int rng (Array.length paths)) }
    | 2 -> P.Rrelease { vfd }
    | 3 -> P.Rread { vfd; buf = int (); len = int () }
    | 4 -> P.Rwrite { vfd; buf = int (); len = int () }
    | 5 -> P.Rioctl { vfd; cmd = int (); arg = Sim.Rng.next_int64 rng }
    | 6 -> P.Rmmap { vfd; gva = int (); len = int (); pgoff = int () }
    | 7 -> P.Rfault { vfd; gva = int () }
    | 8 -> P.Rmunmap { vfd; gva = int (); len = int () }
    | 9 ->
        let timeout_us =
          match Sim.Rng.int rng 5 with
          | 0 -> Float.nan
          | 1 -> -.Sim.Rng.float rng 1e6
          | 2 -> Float.infinity
          | 3 -> Sim.Rng.float rng 1e12
          | _ -> Sim.Rng.float rng 500.
        in
        P.Rpoll { vfd; want_in = Sim.Rng.bool rng; want_out = Sim.Rng.bool rng; timeout_us }
    | 10 -> P.Rfasync { vfd; on = Sim.Rng.bool rng }
    | _ ->
        if depth > 0 then P.Rnoop
        else
          let n = match Sim.Rng.int rng 8 with 0 -> 0 | 1 -> 33 | _ -> 1 + Sim.Rng.int rng 32 in
          P.Rbatch (List.init n (fun _ -> request 1))
  in
  for i = 1 to 5_000 do
    let grant_ref = if Sim.Rng.int rng 8 = 0 then int () else Sim.Rng.int rng 8 in
    let pid = if Sim.Rng.int rng 8 = 0 then int () else Sim.Rng.int rng 4000 in
    check_request ~where:(where "structured" seed i) ~grant_ref ~pid (request 0)
  done

(* Responses: generated singletons and batch replies (of every size,
   nested ones too), encoded, then mutated before decoding. *)
let test_responses () =
  let seed = 0x2E5_70L in
  let rng = Sim.Rng.create ~seed in
  let limits = P.Fuzz.default_limits in
  let single () =
    match Sim.Rng.int rng 8 with
    | 0 -> P.Rok (max_int - Sim.Rng.int rng 4)
    | 1 -> P.Rerr (-1 - Sim.Rng.int rng 4)
    | _ ->
        W.generate
          (List.nth P.resp_specs (Sim.Rng.int rng (List.length P.resp_specs)))
          limits rng
  in
  for i = 1 to 5_000 do
    let resp =
      match Sim.Rng.int rng 3 with
      | 0 -> single ()
      | _ ->
          let n = match Sim.Rng.int rng 10 with 0 -> 0 | 1 -> 33 | _ -> 1 + Sim.Rng.int rng 32 in
          P.Rbatch_reply
            (List.init n (fun _ ->
                 if Sim.Rng.int rng 50 = 0 then P.Rbatch_reply [ P.Rok 0 ] else single ()))
    in
    let where = where "responses" seed i in
    check_response ~where resp;
    match Wire_model.encode_response resp with
    | exception Invalid_argument _ -> ()
    | b ->
        for _ = 1 to 1 + Sim.Rng.int rng 3 do
          match Sim.Rng.int rng 3 with
          | 0 -> Bytes.set_int32_le b (4 * Sim.Rng.int rng 6) (Int32.of_int (Sim.Rng.int rng 40))
          | 1 -> Bytes.set_uint8 b (Sim.Rng.int rng 1004) (Sim.Rng.int rng 256)
          | _ -> Bytes.set_int32_le b (4 * Sim.Rng.int rng 251) (Int32.of_int (Sim.Rng.int rng 1100))
        done;
        check_response_bytes ~where b
  done

let suites =
  [
    ( "wire_spec.oracle",
      [
        Alcotest.test_case "golden corpus" `Quick test_golden;
        Alcotest.test_case "Proto.Fuzz descriptors and skeletons" `Quick test_fuzz;
        Alcotest.test_case "hostile grammar campaign" `Quick test_grammar_campaign;
        Alcotest.test_case "hostile class campaign" `Quick test_class_campaign;
        Alcotest.test_case "byte flips" `Quick test_byte_flips;
        Alcotest.test_case "structured requests" `Quick test_structured;
        Alcotest.test_case "responses" `Quick test_responses;
      ] );
  ]
