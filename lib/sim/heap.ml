(** Binary min-heap specialised to the event queue.

    Keys are [(time, tie key)] pairs; the tie key (the engine's
    insertion sequence number) makes event ordering at equal
    timestamps deterministic (FIFO in insertion order), which the whole
    simulation's reproducibility rests on.

    The heap is a structure of arrays: a flat [float array] of times,
    an [int array] of tie keys and an array of values, so a push
    allocates nothing beyond an occasional doubling, and a reordering
    of equal-time events touches only the tie keys.  Sifts move a hole
    instead of swapping, and every cell a pop vacates is reset to
    [dummy], so the queue never keeps a run event's value alive. *)

type 'a t = {
  mutable times : float array;
  mutable keys : int array;
  mutable values : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { times = [||]; keys = [||]; values = [||]; size = 0; dummy }

let is_empty t = t.size = 0

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let grow t =
  let capacity = max 16 (2 * Array.length t.keys) in
  let times = Array.make capacity 0. and keys = Array.make capacity 0 in
  let values = Array.make capacity t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.keys <- keys;
  t.values <- values

(* Move cell [src] into cell [dst] (the hole). *)
let move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.keys dst (Array.unsafe_get t.keys src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

let push t ~time ~seq value =
  if t.size = Array.length t.keys then grow t;
  (* sift the hole at the end up past every parent that sorts after
     the new entry, then fill it *)
  let hole = ref t.size in
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = Array.unsafe_get t.times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get t.keys parent) then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else rising := false
  done;
  Array.unsafe_set t.times !hole time;
  Array.unsafe_set t.keys !hole seq;
  Array.unsafe_set t.values !hole value;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = Array.unsafe_get t.values 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* sift the hole at the root down past every child that sorts
       before the last entry, then move the last entry into it *)
    let time = Array.unsafe_get t.times last and seq = Array.unsafe_get t.keys last in
    let hole = ref 0 in
    let sinking = ref true in
    while !sinking do
      let left = (2 * !hole) + 1 in
      if left >= last then sinking := false
      else begin
        let right = left + 1 in
        let child =
          if right < last then begin
            let lt = Array.unsafe_get t.times left
            and rt = Array.unsafe_get t.times right in
            if
              rt < lt
              || (rt = lt && Array.unsafe_get t.keys right < Array.unsafe_get t.keys left)
            then right
            else left
          end
          else left
        in
        let ct = Array.unsafe_get t.times child in
        if ct < time || (ct = time && Array.unsafe_get t.keys child < seq) then begin
          move t ~src:child ~dst:!hole;
          hole := child
        end
        else sinking := false
      end
    done;
    move t ~src:last ~dst:!hole
  end;
  Array.unsafe_set t.values last t.dummy;
  top
