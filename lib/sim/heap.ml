(** Binary min-heap specialised to the event queue.

    Keys are [(time, sequence)] pairs; the sequence number makes event
    ordering at equal timestamps deterministic (FIFO in insertion
    order), which the whole simulation's reproducibility rests on. *)

type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
}

let create () = { data = [||]; size = 0 }

let is_empty t = t.size = 0

let entry_before a b =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let new_capacity = max 16 (capacity * 2) in
    let data = Array.make new_capacity entry in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && entry_before t.data.(left) t.data.(!smallest) then
    smallest := left;
  if right < t.size && entry_before t.data.(right) t.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~time ~seq value =
  let entry = { time; seq; value } in
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.data.(0)
