(** Camera: a UVC-like hardware model under a V4L2-like driver.

    The streaming interface the paper's GUVCview benchmark exercises
    (§6.1.6): REQBUFS allocates frame buffers, the application mmaps
    and queues them, STREAMON starts the sensor, DQBUF blocks until a
    filled frame is available.  The sensor fills one queued buffer
    every frame interval — the ~29.5 FPS the camera delivers at every
    resolution regardless of configuration. *)

open Oskit

(* V4L2-ish ioctl numbers *)
let vidioc_reqbufs = Ioctl_num.iowr ~typ:'V' ~nr:8 ~size:8 (* { count u32; pad } *)
let vidioc_querybuf = Ioctl_num.iowr ~typ:'V' ~nr:9 ~size:16 (* { index; pad; offset u64 } *)
let vidioc_qbuf = Ioctl_num.iowr ~typ:'V' ~nr:15 ~size:8 (* { index u32; pad } *)
let vidioc_dqbuf = Ioctl_num.iowr ~typ:'V' ~nr:17 ~size:8 (* { index u32 (out); pad } *)
let vidioc_streamon = Ioctl_num.io ~typ:'V' ~nr:18
let vidioc_streamoff = Ioctl_num.io ~typ:'V' ~nr:19
let vidioc_s_fmt = Ioctl_num.iowr ~typ:'V' ~nr:5 ~size:8 (* { width u32; height u32 } *)

type buffer = {
  index : int;
  pages : int array; (* driver-VM gpas *)
  mutable queued : bool;
  mutable filled : bool;
}

type t = {
  kernel : Kernel.t;
  fps : float;
  mutable width : int;
  mutable height : int;
  mutable buffers : buffer array;
  mutable streaming : bool;
  wq : Wait_queue.t;
  sensor_wq : Wait_queue.t; (* sensor sleeps here when it has nothing to fill *)
  mutable frames_delivered : int;
  mutable sequence : int;
  frame_bytes : unit -> int;
}

let create kernel ~fps =
  let t =
    {
      kernel;
      fps;
      width = 1280;
      height = 720;
      buffers = [||];
      streaming = false;
      wq = Wait_queue.create (Kernel.engine kernel);
      sensor_wq = Wait_queue.create (Kernel.engine kernel);
      frames_delivered = 0;
      sequence = 0;
      frame_bytes = (fun () -> 0);
    }
  in
  (* MJPG frames: modelled as ~1/8 of raw size *)
  { t with frame_bytes = (fun () -> t.width * t.height * 2 / 8) }

let frames_delivered t = t.frames_delivered

(* The sensor: fills the oldest queued buffer each frame period; idles
   (no simulation events) while not streaming or with nothing queued. *)
let fillable t =
  Array.fold_left
    (fun acc b ->
      if b.queued && not b.filled then
        match acc with
        | None -> Some b
        | Some best -> if b.index < best.index then Some b else acc
      else acc)
    None t.buffers

let start_sensor t =
  let eng = Kernel.engine t.kernel in
  Sim.Engine.spawn eng ~name:"uvc-sensor" (fun () ->
      let interval = 1_000_000. /. t.fps in
      let rec loop () =
        if not t.streaming || fillable t = None then Wait_queue.sleep t.sensor_wq
        else begin
          Sim.Engine.wait interval;
          match fillable t with
          | Some b ->
              (* stamp the frame header into the buffer's first page *)
              t.sequence <- t.sequence + 1;
              b.filled <- true;
              let vm = Kernel.vm t.kernel in
              let hdr = Bytes.create 8 in
              Bytes.set_int32_le hdr 0 (Int32.of_int 0xAFAF);
              Bytes.set_int32_le hdr 4 (Int32.of_int t.sequence);
              Hypervisor.Vm.write vm ~pt:Hypervisor.Vm.no_pt ~addr:b.pages.(0) hdr;
              Wait_queue.wake_all t.wq
          | None -> () (* buffer was dequeued while we slept: drop *)
        end;
        loop ()
      in
      loop ())

let buffer_pages t = Memory.Addr.pages_spanned ~addr:0 ~len:(t.frame_bytes ())

let handle_reqbufs t task ~arg =
  let uaddr = Int64.to_int arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:8 in
  let count = Int32.to_int (Bytes.get_int32_le data 0) in
  if count <= 0 || count > 32 then Errno.fail Errno.EINVAL "reqbufs: bad count";
  (* reallocating the buffer table mid-stream would yank the array out
     from under the sensor and every mmap cookie derived from it; real
     V4L2 refuses with EBUSY while streaming *)
  if t.streaming then Errno.fail Errno.EBUSY "reqbufs: streaming";
  let vm = Kernel.vm t.kernel in
  t.buffers <-
    Array.init count (fun index ->
        {
          index;
          pages =
            Array.init (buffer_pages t) (fun _ -> Hypervisor.Vm.alloc_gpa_page vm);
          queued = false;
          filled = false;
        });
  Uaccess.copy_to_user task ~uaddr data;
  0

let handle_querybuf t task ~arg =
  let uaddr = Int64.to_int arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:16 in
  let index = Int32.to_int (Bytes.get_int32_le data 0) in
  if index < 0 || index >= Array.length t.buffers then
    Errno.fail Errno.EINVAL "querybuf: bad index";
  (* mmap cookie: buffer index in the page offset *)
  Bytes.set_int64_le data 8 (Int64.of_int (index lsl 8 * Memory.Addr.page_size));
  Uaccess.copy_to_user task ~uaddr data;
  0

let buffer_of_arg t task ~arg =
  let uaddr = Int64.to_int arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:8 in
  let index = Int32.to_int (Bytes.get_int32_le data 0) in
  if index < 0 || index >= Array.length t.buffers then
    Errno.fail Errno.EINVAL "bad buffer index";
  (t.buffers.(index), uaddr, data)

let handle_qbuf t task ~arg =
  let b, _, _ = buffer_of_arg t task ~arg in
  b.queued <- true;
  b.filled <- false;
  Wait_queue.wake_all t.sensor_wq;
  0

let handle_dqbuf t task file ~arg =
  let _, uaddr, data = buffer_of_arg t task ~arg in
  if not t.streaming then Errno.fail Errno.EINVAL "dqbuf: not streaming";
  let rec find_filled () =
    let filled =
      Array.fold_left
        (fun acc b -> if b.filled then match acc with None -> Some b | s -> s else acc)
        None t.buffers
    in
    match filled with
    | Some b -> b
    | None ->
        if file.Defs.nonblock then Errno.fail Errno.EAGAIN "no frame ready";
        Wait_queue.sleep t.wq;
        find_filled ()
  in
  let b = find_filled () in
  b.filled <- false;
  b.queued <- false;
  t.frames_delivered <- t.frames_delivered + 1;
  Bytes.set_int32_le data 0 (Int32.of_int b.index);
  Uaccess.copy_to_user task ~uaddr data;
  0

let handle_s_fmt t task ~arg =
  let uaddr = Int64.to_int arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:8 in
  let w = Int32.to_int (Bytes.get_int32_le data 0)
  and h = Int32.to_int (Bytes.get_int32_le data 4) in
  if w <= 0 || h <= 0 || w > 4096 || h > 4096 then
    Errno.fail Errno.EINVAL "s_fmt: bad resolution";
  (* growing the frame size mid-stream would outgrow buffers already
     allocated and mapped at the old size *)
  if t.streaming then Errno.fail Errno.EBUSY "s_fmt: streaming";
  t.width <- w;
  t.height <- h;
  Uaccess.copy_to_user task ~uaddr data;
  0

let file_ops t =
  {
    Defs.default_ops with
    Defs.fop_kinds =
      [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl; Os_flavor.Mmap;
        Os_flavor.Fault; Os_flavor.Poll ];
    fop_ioctl =
      (fun task file ~cmd ~arg ->
        if cmd = vidioc_reqbufs then handle_reqbufs t task ~arg
        else if cmd = vidioc_querybuf then handle_querybuf t task ~arg
        else if cmd = vidioc_qbuf then handle_qbuf t task ~arg
        else if cmd = vidioc_dqbuf then handle_dqbuf t task file ~arg
        else if cmd = vidioc_streamon then begin
          t.streaming <- true;
          Wait_queue.wake_all t.sensor_wq;
          0
        end
        else if cmd = vidioc_streamoff then begin
          t.streaming <- false;
          0
        end
        else if cmd = vidioc_s_fmt then handle_s_fmt t task ~arg
        else Errno.fail Errno.ENOTTY "unknown v4l2 ioctl");
    fop_mmap = (fun _ _ _ -> ());
    fop_fault =
      (fun task _file vma ~gva ->
        let index = vma.Defs.vma_pgoff lsr 8 in
        if index < 0 || index >= Array.length t.buffers then
          Errno.fail Errno.EFAULT "fault: stale camera mapping";
        let b = t.buffers.(index) in
        let page = (gva - vma.Defs.vma_start) / Memory.Addr.page_size in
        if page >= Array.length b.pages then Errno.fail Errno.EFAULT "fault beyond buffer";
        Uaccess.insert_pfn task ~gva ~page_gpa:b.pages.(page) ~perms:Memory.Perm.rw);
    fop_poll =
      (fun _task _file ~want_in:_ ~want_out:_ ->
        let ready = Array.exists (fun b -> b.filled) t.buffers in
        { Defs.pollin = ready; pollout = false; poll_wq = Some t.wq });
  }

(** Cameras allow only one process at a time (§5.1). *)
let register t ~path =
  let dev =
    Defs.make_device ~path ~cls:"camera" ~driver:"V4L2/UVC" ~exclusive:true
      (file_ops t)
  in
  Devfs.register (Kernel.devfs t.kernel) dev;
  dev
